package core

import (
	"fmt"
	"math"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/matrix"
)

// TestLookaheadDeterminism runs every configuration several times on fresh
// systems and requires the same simulated makespan, PCIe and inter-node
// traffic, work and factor bits each time. Under look-ahead the GPUs'
// streams run on real goroutines while the host pulls and factorizes the
// next panel, so a clock that billed an operation by wall-clock
// interleaving would drift here; the serial schedule rows pin that the
// topologies themselves are deterministic. The flat 1-, 2- and 4-GPU rows
// cover the parallel link clock, where copies to different GPUs overlap,
// and the 2- and 4-node rows its inter-node tier. The 1- and 2-GPU rows
// run at n=256 to keep the suite inside check.sh's -race timeout. The
// diagonally dominant LU input swaps no rows, so LU also runs on a
// general n=256 matrix on the flat 2-GPU and the 4-node topology, driving
// the row interchanges through the protected layout, the pre-swap probes
// and the cross-node parity. The injected rows add on-chip faults on step
// 2's panel factorization and trailing update, whose transient corruption
// the look-ahead schedule applies inside the launched trailing slices, and
// require the same events each time too. Runs stay sequential:
// Result.Flops differences a process-wide counter, so concurrent runs
// would count each other's work.
func TestLookaheadDeterminism(t *testing.T) {
	const nb, runs = 32, 3
	onChip := []fault.Spec{
		{Kind: fault.OnChipMemory, Op: fault.PD, Part: fault.UpdatePart, Iteration: 2, Row: -1, Col: -1},
		{Kind: fault.OnChipMemory, Op: fault.TMU, Part: fault.ReferencePart, Iteration: 2, Row: -1, Col: -1},
	}
	type detCase struct {
		decomp      string
		a           *matrix.Dense
		pivots      bool // the input must swap rows
		gpus, nodes int
	}
	var cases []detCase
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, topo := range []struct{ n, gpus, nodes int }{{256, 1, 1}, {256, 2, 1}, {384, 4, 1}, {384, 4, 2}, {384, 4, 4}} {
			cases = append(cases, detCase{decomp, pipelineInput(decomp, topo.n), false, topo.gpus, topo.nodes})
		}
	}
	general := matrix.Random(256, 256, matrix.NewRNG(5))
	cases = append(cases, detCase{"lu", general, true, 2, 1}, detCase{"lu", general, true, 4, 4})
	for _, c := range cases {
		for _, lookahead := range []int{0, 1} {
			for _, specs := range [][]fault.Spec{nil, onChip} {
				opts := Options{NB: nb, Protection: Full, Scheme: NewScheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead}
				label := fmt.Sprintf("%s n=%d gpus=%d nodes=%d pivots=%t la=%d faults=%v",
					c.decomp, c.a.Rows, c.gpus, c.nodes, c.pivots, lookahead, specs)
				var first string
				for r := 0; r < runs; r++ {
					var inj *fault.Injector
					if specs != nil {
						inj = fault.NewInjector(21)
						for _, s := range specs {
							inj.Schedule(s)
						}
						opts.Injector = inj
					}
					out, piv, tau, res, err := runDecomp(c.decomp, clusterSystem(c.gpus, c.nodes), c.a, opts)
					if err != nil {
						t.Fatalf("%s run %d: %v", label, r, err)
					}
					if c.pivots && !swapsRows(piv) {
						t.Fatalf("%s run %d: the input swapped no rows", label, r)
					}
					got := fmt.Sprintf("sim=%x pcie=%d internode=%d flops=%d bits=%016x counter=%+v",
						math.Float64bits(res.SimMakespan), res.PCIeBytes, res.InternodeBytes,
						res.Flops, factorBits(out, piv, tau), res.Counter)
					if inj != nil {
						if len(inj.Events()) != len(specs) {
							t.Fatalf("%s run %d: %d of %d faults fired", label, r, len(inj.Events()), len(specs))
						}
						got += fmt.Sprintf(" events=%v", inj.Events())
					}
					if r == 0 {
						first = got
					} else if got != first {
						t.Errorf("%s run %d differs from run 0:\n got  %s\n want %s", label, r, got, first)
					}
				}
			}
		}
	}
}

// swapsRows reports whether the LU pivot vector piv interchanges any row.
func swapsRows(piv []int) bool {
	for i, p := range piv {
		if p != i {
			return true
		}
	}
	return false
}
