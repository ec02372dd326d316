package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

func protOpts(nb int) Options {
	return Options{NB: nb, Protection: Full, Scheme: NewScheme}
}

// TestCholeskyAbortsOnDeviceLoss: a GPU crash mid-factorization surfaces
// as a typed DeviceLostError, not a panic, deadlock, or silent result.
func TestCholeskyAbortsOnDeviceLoss(t *testing.T) {
	sys := hetsim.New(hetsim.DefaultConfig(2))
	a := matrix.RandomSPD(128, matrix.NewRNG(1))
	opts := protOpts(32)
	opts.FailStop = map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultCrash, AfterOps: 25}}
	out, res, err := Cholesky(sys, a, opts)
	if out != nil || res != nil {
		t.Fatal("aborted run still returned a result")
	}
	var lost *hetsim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want DeviceLostError", err)
	}
	if lost.Device != "GPU1" {
		t.Fatalf("lost device = %q, want GPU1", lost.Device)
	}
	// Partial-state cleanup contract: the aborted system is Reset-safe and
	// a rerun on it succeeds.
	sys.Reset()
	if _, _, err := Cholesky(sys, a, protOpts(32)); err != nil {
		t.Fatalf("rerun after Reset failed: %v", err)
	}
}

// TestLUAbortsOnHangDeadline: a hung device is reaped by the bound
// context's deadline and classified as both a hang and a deadline.
func TestLUAbortsOnHangDeadline(t *testing.T) {
	sys := hetsim.New(hetsim.DefaultConfig(2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sys.Bind(ctx)
	a := matrix.RandomDiagDominant(128, matrix.NewRNG(2))
	opts := protOpts(32)
	opts.FailStop = map[int]hetsim.FaultPlan{0: {Mode: hetsim.FaultHang, AfterOps: 10}}
	_, _, _, err := LU(sys, a, opts)
	var hung *hetsim.DeviceHungError
	if !errors.As(err, &hung) {
		t.Fatalf("err = %v, want DeviceHungError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang not attributed to the deadline: %v", err)
	}
}

// TestQRAbortsOnCancel: plain cancellation of the bound context aborts the
// ladder promptly at the next kernel gate.
func TestQRAbortsOnCancel(t *testing.T) {
	sys := hetsim.New(hetsim.DefaultConfig(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys.Bind(ctx)
	a := matrix.Random(96, 96, matrix.NewRNG(3))
	_, _, _, err := QR(sys, a, protOpts(32))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStragglerCompletesWithInflatedClock: a straggler is a performance
// fault, not a correctness fault — the run completes with a correct factor
// but the slow GPU's simulated busy time is inflated by the Slowdown.
func TestStragglerCompletesWithInflatedClock(t *testing.T) {
	a := matrix.RandomSPD(128, matrix.NewRNG(4))
	base := hetsim.New(hetsim.DefaultConfig(2))
	if _, _, err := Cholesky(base, a.Clone(), protOpts(32)); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	slow := hetsim.New(hetsim.DefaultConfig(2))
	opts := protOpts(32)
	opts.FailStop = map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 16}}
	out, _, err := Cholesky(slow, a.Clone(), opts)
	if err != nil {
		t.Fatalf("straggler run: %v", err)
	}
	if r := matrix.CholeskyResidual(a, out); r > 1e-9 {
		t.Fatalf("straggler corrupted the factor: residual %g", r)
	}
	bt, st := base.GPU(1).SimTime(), slow.GPU(1).SimTime()
	if st < 8*bt {
		t.Fatalf("straggler GPU1 sim time %v, want >= 8x baseline %v", st, bt)
	}
}
