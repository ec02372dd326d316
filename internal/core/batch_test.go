package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

func batchOpts(lookahead int) Options {
	return Options{
		NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		Lookahead: lookahead,
	}
}

// batchInputs builds count distinct well-conditioned inputs for a
// decomposition, each from its own seed so no two items share data.
func batchInputs(decomp string, count, n int) []*matrix.Dense {
	ms := make([]*matrix.Dense, count)
	for i := range ms {
		rng := matrix.NewRNG(uint64(101 + 13*i))
		switch decomp {
		case "cholesky":
			ms[i] = matrix.RandomSPD(n, rng)
		case "lu":
			ms[i] = matrix.RandomDiagDominant(n, rng)
		default:
			ms[i] = matrix.Random(n, n, rng)
		}
	}
	return ms
}

// runSolo factorizes one matrix on a fresh system and returns the factor,
// the auxiliary output (pivots or tau) and the run's report.
func runSolo(t *testing.T, decomp string, a *matrix.Dense, gpus int, opts Options) (*matrix.Dense, []int, []float64, *Result) {
	t.Helper()
	out, piv, tau, res, err := runDecomp(decomp, testSystem(gpus), a.Clone(), opts)
	if err != nil {
		t.Fatalf("solo %s: %v", decomp, err)
	}
	return out, piv, tau, res
}

// runBatched factorizes the items as one batch on a fresh system, under
// the per-item injectors injs (nil for none), and returns per-item factors,
// auxiliary outputs and reports, failing the test on any batch-level or
// per-item error.
func runBatched(t *testing.T, decomp string, ms []*matrix.Dense, gpus int, opts Options, injs []*fault.Injector) ([]*matrix.Dense, [][]int, [][]float64, []*Result) {
	t.Helper()
	return runBatchedOn(t, decomp, ms, testSystem(gpus), opts, injs)
}

// runBatchedOn is runBatched on a caller-built system.
func runBatchedOn(t *testing.T, decomp string, ms []*matrix.Dense, sys *hetsim.System, opts Options, injs []*fault.Injector) ([]*matrix.Dense, [][]int, [][]float64, []*Result) {
	t.Helper()
	var (
		outs []*matrix.Dense
		pivs [][]int
		taus [][]float64
		ress []*Result
		errs []error
		err  error
	)
	switch decomp {
	case "cholesky":
		outs, ress, errs, err = CholeskyBatch(sys, ms, opts, injs)
	case "lu":
		outs, pivs, ress, errs, err = LUBatch(sys, ms, opts, injs)
	default:
		outs, taus, ress, errs, err = QRBatch(sys, ms, opts, injs)
	}
	if err != nil {
		t.Fatalf("batched %s: %v", decomp, err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("batched %s item %d: %v", decomp, i, e)
		}
	}
	return outs, pivs, taus, ress
}

// batchInjectors arms items 1 and 2 of a batch with an on-chip fault on
// the trailing update's reference stage and a computation fault on its
// output, both at step 1; item 0 stays clean.
func batchInjectors() []*fault.Injector {
	onChip := fault.NewInjector(7)
	onChip.Schedule(fault.Spec{Kind: fault.OnChipMemory, Op: fault.TMU, Part: fault.ReferencePart, Iteration: 1, Row: -1, Col: -1})
	comp := fault.NewInjector(8)
	comp.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.TMU, Iteration: 1, Row: -1, Col: -1})
	return []*fault.Injector{nil, onChip, comp}
}

// The batched bit-identity pin: every item of a batched run is bit-for-bit
// the factor the same matrix produces solo, across all three
// decompositions, both schedules, and 1-3 GPUs. This is what makes
// batching purely a throughput decision for the serving layer. Injected
// items run the batch's schedule too: under look-ahead they must equal
// their serial twins bit for bit.
func TestBatchBitIdentity(t *testing.T) {
	const n, count = 64, 3
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for gpus := 1; gpus <= 3; gpus++ {
			var twin []*matrix.Dense
			for _, lookahead := range []int{0, 1} {
				ms := batchInputs(decomp, count, n)
				opts := batchOpts(lookahead)
				injs := batchInjectors()
				iouts, _, _, _ := runBatched(t, decomp, ms, gpus, opts, injs)
				for i, inj := range injs {
					if inj != nil && len(inj.Events()) != 1 {
						t.Fatalf("%s gpus=%d lookahead=%d item %d: injector fired %d faults, want 1",
							decomp, gpus, lookahead, i, len(inj.Events()))
					}
				}
				if twin == nil {
					twin = iouts
				}
				for i := range iouts {
					if d, r, c := twin[i].MaxAbsDiff(iouts[i]); d != 0 {
						t.Fatalf("%s gpus=%d injected item %d: look-ahead factor not bit-identical to serial: |Δ|=%g at (%d,%d)",
							decomp, gpus, i, d, r, c)
					}
				}
				outs, pivs, taus, _ := runBatched(t, decomp, ms, gpus, opts, nil)
				for i := 0; i < count; i++ {
					sout, spiv, stau, _ := runSolo(t, decomp, ms[i], gpus, opts)
					label := decomp
					if d, r, c := sout.MaxAbsDiff(outs[i]); d != 0 {
						t.Fatalf("%s gpus=%d lookahead=%d item %d: factor not bit-identical to solo: |Δ|=%g at (%d,%d)",
							label, gpus, lookahead, i, d, r, c)
					}
					for j := range spiv {
						if spiv[j] != pivs[i][j] {
							t.Fatalf("%s gpus=%d lookahead=%d item %d: pivot %d differs: %d vs %d",
								label, gpus, lookahead, i, j, spiv[j], pivs[i][j])
						}
					}
					for j := range stau {
						if stau[j] != taus[i][j] {
							t.Fatalf("%s gpus=%d lookahead=%d item %d: tau %d differs: %g vs %g",
								label, gpus, lookahead, i, j, stau[j], taus[i][j])
						}
					}
				}
			}
		}
	}
}

// A batch of one is a solo run, on the simulated clock as in its bits:
// both distribute and gather the item in one staging each, so the
// one-item batch pays the same link latencies, moves the same bytes and
// finishes at the same simulated instant as the solo run, across all
// three decompositions, both schedules, and 1-3 GPUs.
func TestBatchOfOneMatchesSolo(t *testing.T) {
	const n = 192
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for gpus := 1; gpus <= 3; gpus++ {
			for _, lookahead := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/gpus=%d/lookahead=%d", decomp, gpus, lookahead), func(t *testing.T) {
					t.Parallel()
					a := batchInputs(decomp, 1, n)[0]
					opts := batchOpts(lookahead)
					opts.NB = 32
					sout, spiv, stau, sres := runSolo(t, decomp, a, gpus, opts)
					outs, pivs, taus, ress := runBatched(t, decomp, []*matrix.Dense{a}, gpus, opts, nil)
					if d, r, c := sout.MaxAbsDiff(outs[0]); d != 0 {
						t.Fatalf("factor not bit-identical to solo: |Δ|=%g at (%d,%d)", d, r, c)
					}
					if (pivs != nil && !slices.Equal(spiv, pivs[0])) || (taus != nil && !slices.Equal(stau, taus[0])) {
						t.Fatal("pivots or tau differ from solo")
					}
					if got, want := ress[0].SimMakespan, sres.SimMakespan; got != want {
						t.Fatalf("SimMakespan %v, solo %v (Δ %.1f us)", got, want, (got-want)*1e6)
					}
					if got, want := ress[0].PCIeBytes, sres.PCIeBytes; got != want {
						t.Fatalf("PCIeBytes %d, solo %d", got, want)
					}
				})
			}
		}
	}
}

// A DRAM double-fault in one strip of item 1's first LU panel (the
// detected-but-uncorrectable fixture from the service tests) must corrupt
// only item 1: siblings complete bit-identical to their solo runs, and the
// corrupted item itself still completes — flagged Unrecoverable — rather
// than erroring the dispatch. Per-item fault containment is the core-level
// half of the serving layer's retry-isolation contract.
func TestBatchPerItemFaultContainment(t *testing.T) {
	const n, count = 64, 3
	ms := batchInputs("lu", count, n)
	opts := batchOpts(1)
	opts.Protection = SingleSide

	inj := fault.NewInjector(99)
	for _, row := range []int{1, 2} {
		inj.Schedule(fault.Spec{
			Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart,
			Iteration: 0, Row: row, Col: 0,
		})
	}

	sys := testSystem(2)
	outs, pivs, ress, errs, err := LUBatch(sys, ms, opts, []*fault.Injector{nil, inj, nil})
	if err != nil {
		t.Fatalf("batch-level error: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("item %d errored: %v", i, e)
		}
	}
	if !ress[1].Unrecoverable {
		t.Fatal("injected item not flagged unrecoverable — fixture no longer corrupts")
	}
	for _, i := range []int{0, 2} {
		if ress[i].Unrecoverable {
			t.Fatalf("clean sibling %d flagged unrecoverable", i)
		}
		sout, spiv, _, _ := runSolo(t, "lu", ms[i], 2, opts)
		if d, r, c := sout.MaxAbsDiff(outs[i]); d != 0 {
			t.Fatalf("sibling %d not bit-identical to solo: |Δ|=%g at (%d,%d)", i, d, r, c)
		}
		for j := range spiv {
			if spiv[j] != pivs[i][j] {
				t.Fatalf("sibling %d pivot %d differs", i, j)
			}
		}
	}
}

// A panel the kernel cannot factor is a driver error, not a fault: on a
// Cholesky input that is not positive definite in its second block, POTF2
// fails on both attempts of the local restart. Solo, the run returns that
// error with no factor and no report. As item 1 of a batch of three, the
// error lands in errs[1] alone, with no factor and no report, and the
// siblings complete bit-identical to their solo runs. Both schedules.
func TestDriverErrorDropsItem(t *testing.T) {
	const n, gpus = 64, 2
	const want = "core: Cholesky PD failed after local restart at block 1: "
	for _, lookahead := range []int{0, 1} {
		opts := batchOpts(lookahead)
		ms := batchInputs("cholesky", 3, n)
		ms[1].Set(20, 20, -1e3)
		out, res, err := Cholesky(testSystem(gpus), ms[1], opts)
		if err == nil || !strings.HasPrefix(err.Error(), want) || out != nil || res != nil {
			t.Fatalf("lookahead=%d solo: factor %v, report %v, error %v; want nil, nil, %q…", lookahead, out != nil, res != nil, err, want)
		}
		outs, ress, errs, berr := CholeskyBatch(testSystem(gpus), ms, opts, nil)
		if berr != nil {
			t.Fatalf("lookahead=%d: batch-level error: %v", lookahead, berr)
		}
		if errs[1] == nil || errs[1].Error() != err.Error() || outs[1] != nil || ress[1] != nil {
			t.Fatalf("lookahead=%d item 1: factor %v, report %v, error %v; want nil, nil, %q", lookahead, outs[1] != nil, ress[1] != nil, errs[1], err)
		}
		for _, i := range []int{0, 2} {
			if errs[i] != nil {
				t.Fatalf("lookahead=%d sibling %d errored: %v", lookahead, i, errs[i])
			}
			sout, _, _, _ := runSolo(t, "cholesky", ms[i], gpus, opts)
			if d, r, c := sout.MaxAbsDiff(outs[i]); d != 0 {
				t.Fatalf("lookahead=%d sibling %d not bit-identical to solo: |Δ|=%g at (%d,%d)", lookahead, i, d, r, c)
			}
		}
	}
}

// Batched runs reject malformed inputs (a nil or non-square item, mixed
// orders, an order that is not a multiple of NB), the per-run control-flow
// options (checkpointing, resume, fail-stop, link-fault and node-fault
// plans, rebalancing, Options.Injector), and malformed injector slices.
func TestBatchOptionValidation(t *testing.T) {
	const n = 32
	opts := batchOpts(0)
	cases := []struct {
		name string
		mut  func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector)
	}{
		{"empty", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) { return nil, nil }},
		{"nil-item", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			return []*matrix.Dense{ms[0], nil}, nil
		}},
		{"non-square", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			return []*matrix.Dense{matrix.NewDense(n, 2*n), ms[1]}, nil
		}},
		{"mixed-orders", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			return []*matrix.Dense{ms[0], batchInputs("cholesky", 1, 2*n)[0]}, nil
		}},
		{"order-not-multiple-of-nb", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			return batchInputs("cholesky", 2, n+o.NB/2), nil
		}},
		{"options-injector", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.Injector = fault.NewInjector(1)
			return ms, nil
		}},
		{"checkpoint", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.CheckpointEvery = 1
			return ms, nil
		}},
		{"failstop", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.FailStop = map[int]hetsim.FaultPlan{0: {}}
			return ms, nil
		}},
		{"linkfault", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.LinkFault = map[int]hetsim.LinkFaultPlan{0: {}}
			return ms, nil
		}},
		{"nodefault", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.NodeFault = map[int]hetsim.NodeFaultPlan{0: {}}
			return ms, nil
		}},
		{"rebalance", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			o.RebalanceEvery = 1
			return ms, nil
		}},
		{"short-injs", func(ms []*matrix.Dense, o *Options) ([]*matrix.Dense, []*fault.Injector) {
			return ms, make([]*fault.Injector, 1)
		}},
	}
	for _, tc := range cases {
		o := opts
		ms, injs := tc.mut(batchInputs("cholesky", 2, n), &o)
		sys := testSystem(1)
		if _, _, _, err := CholeskyBatch(sys, ms, o, injs); err == nil {
			t.Fatalf("%s: batched run accepted an unsupported batch", tc.name)
		}
	}
	// The unmodified batch runs: the rows above fail for their own reason.
	if _, _, errs, err := CholeskyBatch(testSystem(1), batchInputs("cholesky", 2, n), opts, nil); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("valid batch rejected: %v %v", err, errs)
	}
}
