package hetsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"ftla/internal/matrix"
)

func failSys(t *testing.T, gpus int) *System {
	t.Helper()
	return New(DefaultConfig(gpus))
}

// catch runs fn and returns the abort error it raised (nil if none): the
// driver-boundary RecoverAbort pattern, for tests.
func catch(fn func()) (err error) {
	defer func() { err = RecoverAbort(recover()) }()
	fn()
	return nil
}

// isLost reports whether err is a fail-stop device loss.
func isLost(err error) bool {
	var lost *DeviceLostError
	return errors.As(err, &lost)
}

func TestCrashReturnsDeviceLost(t *testing.T) {
	s := failSys(t, 2)
	g := s.GPU(1)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash})

	err := catch(func() {
		g.Run("gemm", 10, func(int) { t.Fatal("body ran on a crashed device") })
	})
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want DeviceLostError", err)
	}
	if lost.Device != "GPU1" || lost.Op != "gemm" {
		t.Fatalf("lost = %+v", lost)
	}
	if !g.Lost() {
		t.Fatal("device should report Lost after crash")
	}
	// The healthy GPU keeps working.
	if err := catch(func() { s.GPU(0).Run("gemm", 10, func(int) {}) }); err != nil {
		t.Fatalf("healthy GPU errored: %v", err)
	}
}

func TestCrashAfterOpsFiresMidRun(t *testing.T) {
	s := failSys(t, 1)
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash, AfterOps: 3})
	ran := 0
	for i := 0; i < 3; i++ {
		if err := catch(func() { g.Run("k", 1, func(int) { ran++ }) }); err != nil {
			t.Fatalf("op %d errored early: %v", i, err)
		}
	}
	if err := catch(func() { g.Run("k", 1, func(int) { ran++ }) }); !isLost(err) {
		t.Fatalf("4th op: err = %v, want fail-stop", err)
	}
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestTransferOnLostDevice(t *testing.T) {
	s := failSys(t, 2)
	s.ArmFault(s.GPU(1), FaultPlan{Mode: FaultCrash})
	src := s.GPU(0).Alloc(2, 2)
	dst := s.GPU(1).Alloc(2, 2)
	err := catch(func() { s.Transfer(src, dst) })
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("Transfer err = %v, want DeviceLostError", err)
	}
	if lost.Op != "pcie" {
		t.Fatalf("op = %q, want pcie", lost.Op)
	}
	if s.BytesTransferred() != 0 {
		t.Fatal("aborted transfer still moved bytes")
	}
}

func TestHangBlocksUntilDeadline(t *testing.T) {
	s := failSys(t, 1)
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultHang})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Bind(ctx)
	err := catch(func() { g.Run("gemm", 1, func(int) { t.Fatal("body ran on a hung device") }) })
	var hung *DeviceHungError
	if !errors.As(err, &hung) {
		t.Fatalf("err = %v, want DeviceHungError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("hang error should unwrap to the context deadline")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("hang resolved before the deadline fired")
	}
	if !g.Lost() {
		t.Fatal("hung device should count as lost afterwards")
	}
}

func TestHangWithoutContextFailsFast(t *testing.T) {
	s := failSys(t, 1)
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultHang})
	done := make(chan error, 1)
	go func() {
		done <- catch(func() { g.Run("gemm", 1, func(int) {}) })
	}()
	// No context is bound: the hang must degrade to an immediate error
	// rather than deadlock.
	select {
	case err := <-done:
		var hung *DeviceHungError
		if !errors.As(err, &hung) {
			t.Fatalf("err = %v, want DeviceHungError", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang with no bound context deadlocked")
	}
}

func TestStragglerMultipliesSimTime(t *testing.T) {
	s := failSys(t, 2)
	flops := 1e9
	run := func(g *Device) float64 {
		if err := catch(func() { g.Run("k", flops, func(int) {}) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return g.SimTime()
	}
	base := run(s.GPU(0))
	s.ArmFault(s.GPU(1), FaultPlan{Mode: FaultStraggler, Slowdown: 4})
	slow := run(s.GPU(1))
	if slow < 3.9*base || slow > 4.1*base {
		t.Fatalf("straggler sim time %v, want ~4x %v", slow, base)
	}
}

func TestStragglerStallInterruptedByContext(t *testing.T) {
	s := failSys(t, 1)
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultStraggler, Slowdown: 2, Stall: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Bind(ctx)
	err := catch(func() { g.Run("k", 1, func(int) { t.Fatal("body ran through an interrupted stall") }) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall was not interrupted by the context")
	}
}

func TestBoundContextAbortsKernels(t *testing.T) {
	s := failSys(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	s.Bind(ctx)
	g := s.GPU(0)
	b := g.Alloc(2, 2)
	g.Gemm(false, false, 1, b, b, 0, g.Alloc(2, 2)) // runs fine while live
	cancel()
	func() {
		defer func() {
			if e := RecoverAbort(recover()); !errors.Is(e, context.Canceled) {
				t.Fatalf("recovered %v, want context.Canceled", e)
			}
		}()
		g.Gemm(false, false, 1, b, b, 0, g.Alloc(2, 2))
		t.Fatal("kernel ran under a canceled bound context")
	}()
}

func TestRecoverAbortPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("foreign panic swallowed, got %v", r)
		}
	}()
	func() {
		defer func() { RecoverAbort(recover()) }()
		panic("boom")
	}()
}

// TestResetClearsFaultPlan is the regression contract for pooled systems:
// a system released after a device loss must start clean — Reset disarms fault
// plans, revives lost devices, unbinds the abort context, and clears the
// transfer hook.
func TestResetClearsFaultPlan(t *testing.T) {
	s := failSys(t, 2)
	g := s.GPU(1)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash})
	if err := catch(func() { g.Run("k", 1, func(int) {}) }); !isLost(err) {
		t.Fatalf("arming did not crash the device: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Bind(ctx)
	s.SetTransferHook(func(from, to *Device, payload *matrix.Dense) {})

	s.Reset()

	if g.Lost() {
		t.Fatal("Reset did not revive the lost device")
	}
	if err := catch(func() { g.Run("k", 1, func(int) {}) }); err != nil {
		t.Fatalf("post-Reset op errored: %v", err)
	}
	// The canceled bound context must be gone too: plain kernels may not
	// abort.
	b := g.Alloc(1, 1)
	g.Gemm(false, false, 1, b, b, 0, g.Alloc(1, 1))
	// A straggler plan likewise dies with Reset.
	s.ArmFault(g, FaultPlan{Mode: FaultStraggler, Slowdown: 8})
	g.Run("k", 1e9, func(int) {})
	before := g.SimTime()
	s.Reset()
	g.Run("k", 1e9, func(int) {})
	if after := g.SimTime(); after > before/4 {
		t.Fatalf("straggler slowdown survived Reset: %v vs pre-reset %v", after, before)
	}
}

func TestArmFaultZeroPlanDisarms(t *testing.T) {
	s := failSys(t, 1)
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash})
	s.ArmFault(g, FaultPlan{})
	if err := catch(func() { g.Run("k", 1, func(int) {}) }); err != nil {
		t.Fatalf("disarmed device errored: %v", err)
	}
}

func TestFaultPlanStrings(t *testing.T) {
	cases := []FaultPlan{
		{},
		{Mode: FaultCrash, AfterOps: 5},
		{Mode: FaultHang},
		{Mode: FaultStraggler, Slowdown: 4, Stall: time.Millisecond},
	}
	for _, p := range cases {
		if p.String() == "" || p.Mode.String() == "" {
			t.Fatalf("empty description for %+v", p)
		}
	}
}
