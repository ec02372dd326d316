package core

import (
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

func testSystem(gpus int) *hetsim.System {
	cfg := hetsim.DefaultConfig(gpus)
	cfg.CPUWorkers = 1
	cfg.GPUWorkers = 2
	return hetsim.New(cfg)
}

func cholOpts(mode Mode, scheme Scheme) Options {
	return Options{NB: 16, Protection: mode, Scheme: scheme, Kernel: checksum.OptKernel}
}

func runChol(t *testing.T, n, gpus int, opts Options, inj *fault.Injector) (*matrix.Dense, *matrix.Dense, *Result) {
	t.Helper()
	rng := matrix.NewRNG(uint64(n) + 7)
	a := matrix.RandomSPD(n, rng)
	opts.Injector = inj
	sys := testSystem(gpus)
	out, res, err := Cholesky(sys, a, opts)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	return a, out, res
}

func TestCholeskyUnprotectedCorrect(t *testing.T) {
	a, out, res := runChol(t, 64, 1, cholOpts(NoChecksum, NoCheck), nil)
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g", r)
	}
	if res.Detected {
		t.Fatal("unprotected run cannot detect anything")
	}
}

func TestCholeskyCleanAllSchemes(t *testing.T) {
	for _, gpus := range []int{1, 2, 3} {
		for _, tc := range []struct {
			mode   Mode
			scheme Scheme
		}{
			{SingleSide, PriorOp},
			{SingleSide, PostOp},
			{Full, PostOp},
			{Full, NewScheme},
		} {
			a, out, res := runChol(t, 96, gpus, cholOpts(tc.mode, tc.scheme), nil)
			if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
				t.Fatalf("gpus=%d %v/%v residual %g", gpus, tc.mode, tc.scheme, r)
			}
			if res.Detected {
				t.Fatalf("gpus=%d %v/%v false positive: %+v", gpus, tc.mode, tc.scheme, res.Counter)
			}
			if res.OutcomeOf(true) != FaultFree {
				t.Fatalf("outcome %v, want fault-free", res.OutcomeOf(true))
			}
		}
	}
}

func TestCholeskyCountersNewVsPost(t *testing.T) {
	// The new scheme's advantage is asymptotic in b = n/NB (Table VI):
	// it eliminates the Θ(b²) trailing-matrix checks, so it wins once b
	// is past the small-matrix crossover.
	_, _, resNew := runChol(t, 256, 2, cholOpts(Full, NewScheme), nil)
	_, _, resPost := runChol(t, 256, 2, cholOpts(Full, PostOp), nil)
	_, _, resPrior := runChol(t, 256, 2, cholOpts(SingleSide, PriorOp), nil)
	if resNew.Counter.TotalChecked() >= resPost.Counter.TotalChecked() {
		t.Fatalf("new scheme checked %d blocks, post-op %d — new must check fewer",
			resNew.Counter.TotalChecked(), resPost.Counter.TotalChecked())
	}
	if resPost.Counter.TotalChecked() > resPrior.Counter.TotalChecked() {
		t.Fatalf("post-op checked %d, prior %d — prior checks at least as many",
			resPost.Counter.TotalChecked(), resPrior.Counter.TotalChecked())
	}
}

func TestCholeskyComputationFaultTMU(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.TMU, Iteration: 1})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if len(inj.Events()) != 1 {
		t.Fatalf("fault did not fire: %v", inj.Events())
	}
	// A standalone TMU computation error is 0-D: the new scheme leaves it
	// for the next iteration's panel checks, which must fix it.
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g; result corrupted. counters=%+v events=%v", r, res.Counter, inj.Events())
	}
	if !res.Detected {
		t.Fatal("fault was never detected")
	}
}

func TestCholeskyMemoryFaultBeforePD(t *testing.T) {
	inj := fault.NewInjector(2)
	inj.Schedule(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PD, Iteration: 2, Part: fault.UpdatePart})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if len(inj.Events()) != 1 {
		t.Fatal("fault did not fire")
	}
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g; memory fault before PD not tolerated (counters=%+v)", r, res.Counter)
	}
	if !res.Detected {
		t.Fatal("memory fault undetected")
	}
	if res.OutcomeOf(true) == FaultFree {
		t.Fatal("outcome should reflect a repair")
	}
}

func TestCholeskyMemoryFaultPUUpdate(t *testing.T) {
	inj := fault.NewInjector(3)
	inj.Schedule(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PU, Iteration: 0, Part: fault.UpdatePart})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g (counters=%+v, events=%v)", r, res.Counter, inj.Events())
	}
	if !res.Detected {
		t.Fatal("PU memory fault undetected")
	}
}

func TestCholeskyComputationFaultPU(t *testing.T) {
	inj := fault.NewInjector(4)
	inj.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.PU, Iteration: 1})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g (counters=%+v)", r, res.Counter)
	}
	if !res.Detected {
		t.Fatal("PU computation fault undetected")
	}
}

func TestCholeskyComputationFaultPD(t *testing.T) {
	inj := fault.NewInjector(5)
	inj.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.PD, Iteration: 1})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g (counters=%+v)", r, res.Counter)
	}
	if res.Counter.LocalRestarts == 0 {
		t.Fatal("PD computation fault should trigger a local restart")
	}
}

func TestCholeskyCommunicationFaultPUBroadcast(t *testing.T) {
	for leg := 0; leg < 2; leg++ {
		inj := fault.NewInjector(uint64(6 + leg))
		inj.Schedule(fault.Spec{Kind: fault.Communication, Op: fault.PU, Iteration: 0, GPUTarget: leg})
		a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
		if len(inj.Events()) == 0 {
			// The targeted leg may be the owner's self-copy, which PCIe
			// cannot corrupt; the spec then never fires. Skip that leg.
			continue
		}
		if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
			t.Fatalf("leg %d residual %g (counters=%+v)", leg, r, res.Counter)
		}
		if !res.Detected {
			t.Fatalf("leg %d comm fault undetected", leg)
		}
		if res.Counter.LocalRestarts > 0 {
			t.Fatalf("leg %d: single-leg comm error must not trigger local restart (§VII.C)", leg)
		}
	}
}

func TestCholeskyOnChipFaultTMU(t *testing.T) {
	inj := fault.NewInjector(8)
	inj.Schedule(fault.Spec{Kind: fault.OnChipMemory, Op: fault.TMU, Iteration: 0, Part: fault.ReferencePart})
	a, out, res := runChol(t, 96, 2, cholOpts(Full, NewScheme), inj)
	if len(inj.Events()) != 1 {
		t.Fatal("fault did not fire")
	}
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g: on-chip TMU fault not recovered (counters=%+v)", r, res.Counter)
	}
}

func TestCholeskySingleSideMissesPUBroadcastless(t *testing.T) {
	// Single-side + prior-op (the [11] configuration) must still produce
	// a correct result in the error-free case even at 1 GPU.
	a, out, _ := runChol(t, 64, 1, cholOpts(SingleSide, PriorOp), nil)
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 {
		t.Fatalf("residual %g", r)
	}
}

func TestCholeskyRejectsBadOptions(t *testing.T) {
	sys := testSystem(1)
	rng := matrix.NewRNG(1)
	a := matrix.RandomSPD(10, rng) // not a multiple of NB
	if _, _, err := Cholesky(sys, a, cholOpts(Full, NewScheme)); err == nil {
		t.Fatal("expected error for n not multiple of NB")
	}
	b := matrix.Random(16, 8, rng)
	if _, _, err := Cholesky(sys, b, cholOpts(Full, NewScheme)); err == nil {
		t.Fatal("expected error for non-square input")
	}
	c := matrix.RandomSPD(32, rng)
	if _, _, err := Cholesky(sys, c, Options{NB: 16, Protection: Full, Scheme: NoCheck}); err == nil {
		t.Fatal("expected error for Full mode without scheme")
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	sys := testSystem(1)
	a := matrix.NewDense(32, 32) // all zeros: POTF2 must fail twice
	if _, _, err := Cholesky(sys, a, cholOpts(Full, NewScheme)); err == nil {
		t.Fatal("expected not-positive-definite error")
	}
}
