package core

import (
	"fmt"
	"math"
	"testing"

	"ftla/internal/checksum"
)

// TestLookaheadDeterminism runs every configuration several times on fresh
// systems and requires the same simulated makespan, PCIe and inter-node
// traffic, work and factor bits each time. Under look-ahead the GPUs'
// streams run on real goroutines while the host pulls and factorizes the
// next panel, so a clock that billed an operation by wall-clock
// interleaving would drift here; the serial schedule rows pin that the
// topologies themselves are deterministic.
func TestLookaheadDeterminism(t *testing.T) {
	const n, nb, runs = 384, 32, 3
	for _, nodes := range []int{1, 2, 4} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			for _, lookahead := range []int{0, 1} {
				opts := Options{NB: nb, Mode: Full, Scheme: NewScheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead}
				label := fmt.Sprintf("%s nodes=%d la=%d", decomp, nodes, lookahead)
				var first string
				for r := 0; r < runs; r++ {
					out, piv, tau, res, err := runDecomp(decomp, clusterSystem(4, nodes), pipelineInput(decomp, n), opts)
					if err != nil {
						t.Fatalf("%s run %d: %v", label, r, err)
					}
					got := fmt.Sprintf("sim=%x pcie=%d internode=%d flops=%d bits=%016x",
						math.Float64bits(res.SimMakespan), res.PCIeBytes, res.InternodeBytes,
						res.Flops, factorBits(out, piv, tau))
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
