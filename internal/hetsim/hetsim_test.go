package hetsim

import (
	"math"
	"strings"
	"testing"

	"ftla/internal/blas"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

func newSys(t *testing.T, gpus int) *System {
	t.Helper()
	return New(DefaultConfig(gpus))
}

// spanEnd is a simulated-clock span's completion time in seconds.
func spanEnd(sp obs.Span) float64 { return (sp.StartUS + sp.DurUS) / 1e6 }

// near reports whether two simulated times agree up to the rounding of the
// spans' microsecond round trip.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero GPUs")
		}
	}()
	New(Config{NumGPUs: 0})
}

// TestDeviceLap: a lap sums only the kernels run since the previous Lap,
// so the same kernels give the same lap bit for bit whatever busy time the
// device carried before, and Reset zeroes the lap with the running total.
func TestDeviceLap(t *testing.T) {
	lap := func(before float64) float64 {
		d := newSys(t, 1).GPU(0)
		d.Run("before", before, func(int) {})
		d.Lap()
		for _, f := range []float64{3e5, 7e5, 1.1e6} {
			d.Run("k", f, func(int) {})
		}
		return d.Lap()
	}
	want := lap(0)
	if want <= 0 {
		t.Fatalf("lap = %g, want > 0", want)
	}
	for _, before := range []float64{1.234567e7, 9.87654321e8, 3.3e9} {
		if got := lap(before); got != want {
			t.Errorf("after %g flops: lap = %v, want %v", before, got, want)
		}
	}
	sys := newSys(t, 1)
	d := sys.GPU(0)
	d.Run("k", 1e6, func(int) {})
	if d.Lap() == 0 || d.Lap() != 0 {
		t.Fatal("Lap did not return the busy time and start a new lap")
	}
	d.Run("k", 1e6, func(int) {})
	sys.Reset()
	if got := d.Lap(); got != 0 {
		t.Fatalf("lap after Reset = %g, want 0", got)
	}
}

func TestDeviceNames(t *testing.T) {
	s := newSys(t, 2)
	if s.CPU().Name() != "CPU" || s.CPU().ID() != -1 {
		t.Fatalf("CPU identity wrong: %s %d", s.CPU().Name(), s.CPU().ID())
	}
	if s.GPU(1).Name() != "GPU1" || s.GPU(1).Kind() != GPU {
		t.Fatalf("GPU identity wrong")
	}
	if got := s.NumGPUs(); got != 2 {
		t.Fatalf("NumGPUs = %d", got)
	}
}

func TestResidencyEnforced(t *testing.T) {
	s := newSys(t, 2)
	b := s.GPU(0).Alloc(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected residency panic")
		}
	}()
	b.Access(s.GPU(1))
}

func TestAllocFromOnlyCPU(t *testing.T) {
	s := newSys(t, 1)
	m := matrix.NewDense(2, 2)
	if b := s.CPU().AllocFrom(m); b.Rows() != 2 {
		t.Fatal("CPU AllocFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for GPU AllocFrom")
		}
	}()
	s.GPU(0).AllocFrom(m)
}

func TestAllocFromCopies(t *testing.T) {
	s := newSys(t, 1)
	m := matrix.NewDense(2, 2)
	b := s.CPU().AllocFrom(m)
	m.Set(0, 0, 9)
	if b.Access(s.CPU()).At(0, 0) != 0 {
		t.Fatal("AllocFrom must copy")
	}
}

func TestTransferCopiesData(t *testing.T) {
	s := newSys(t, 1)
	src := s.CPU().AllocFrom(matrix.FromRows([][]float64{{1, 2}, {3, 4}}))
	dst := s.GPU(0).Alloc(2, 2)
	s.Transfer(src, dst)
	if dst.Access(s.GPU(0)).At(1, 1) != 4 {
		t.Fatal("transfer did not copy payload")
	}
	if s.BytesTransferred() != 32 {
		t.Fatalf("bytes transferred = %d, want 32", s.BytesTransferred())
	}
	if s.PCIeSimTime() <= 0 {
		t.Fatal("PCIe sim clock did not advance")
	}
}

func TestTransferSameDevicePanics(t *testing.T) {
	s := newSys(t, 1)
	a := s.GPU(0).Alloc(2, 2)
	b := s.GPU(0).Alloc(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected same-device transfer panic")
		}
	}()
	s.Transfer(a, b)
}

func TestTransferShapeMismatchPanics(t *testing.T) {
	s := newSys(t, 1)
	a := s.CPU().Alloc(2, 2)
	b := s.GPU(0).Alloc(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	s.Transfer(a, b)
}

func TestTransferHookRunsOnPayload(t *testing.T) {
	s := newSys(t, 1)
	called := false
	s.SetTransferHook(func(from, to *Device, payload *matrix.Dense) {
		called = true
		if from.Kind() != CPU || to.Kind() != GPU {
			t.Errorf("hook endpoints wrong: %v -> %v", from.Kind(), to.Kind())
		}
		payload.Set(0, 0, 999) // corrupt, as a fault injector would
	})
	src := s.CPU().AllocFrom(matrix.FromRows([][]float64{{1}}))
	dst := s.GPU(0).Alloc(1, 1)
	s.Transfer(src, dst)
	if !called {
		t.Fatal("hook not called")
	}
	if dst.UnsafeData().At(0, 0) != 999 {
		t.Fatal("hook corruption not visible in destination")
	}
	if src.UnsafeData().At(0, 0) != 1 {
		t.Fatal("hook must not corrupt the source")
	}
}

// A broadcast is one independent Transfer per receiver.
func TestBroadcastReachesAllGPUs(t *testing.T) {
	s := newSys(t, 3)
	src := s.CPU().AllocFrom(matrix.FromRows([][]float64{{7}}))
	var dsts []*Buffer
	for _, g := range s.GPUs() {
		dsts = append(dsts, g.Alloc(1, 1))
	}
	for _, d := range dsts {
		s.Transfer(src, d)
	}
	for i, d := range dsts {
		if d.UnsafeData().At(0, 0) != 7 {
			t.Fatalf("GPU%d did not receive broadcast", i)
		}
	}
}

func TestBroadcastPerLegFaults(t *testing.T) {
	// A fault on one leg must not corrupt other receivers — this is the
	// observable §VII.C uses to distinguish communication errors.
	s := newSys(t, 3)
	leg := 0
	s.SetTransferHook(func(from, to *Device, payload *matrix.Dense) {
		if leg == 1 {
			payload.Set(0, 0, -1)
		}
		leg++
	})
	src := s.CPU().AllocFrom(matrix.FromRows([][]float64{{7}}))
	var dsts []*Buffer
	for _, g := range s.GPUs() {
		dsts = append(dsts, g.Alloc(1, 1))
	}
	for _, d := range dsts {
		s.Transfer(src, d)
	}
	corrupted := 0
	for _, d := range dsts {
		if d.UnsafeData().At(0, 0) != 7 {
			corrupted++
		}
	}
	if corrupted != 1 {
		t.Fatalf("corrupted receivers = %d, want exactly 1", corrupted)
	}
}

func TestGemmKernelOnDevice(t *testing.T) {
	s := newSys(t, 1)
	g := s.GPU(0)
	rng := matrix.NewRNG(1)
	am, bm := matrix.Random(8, 8, rng), matrix.Random(8, 8, rng)
	a, b, c := g.Alloc(8, 8), g.Alloc(8, 8), g.Alloc(8, 8)
	a.UnsafeData().CopyFrom(am)
	b.UnsafeData().CopyFrom(bm)
	g.Gemm(false, false, 1, a, b, 0, c)
	want := matrix.NewDense(8, 8)
	blas.Gemm(false, false, 1, am, bm, 0, want)
	if !c.UnsafeData().EqualWithin(want, 1e-12) {
		t.Fatal("device Gemm wrong")
	}
	if g.SimTime() <= 0 {
		t.Fatal("sim clock did not advance")
	}
}

func TestKernelCrossDevicePanics(t *testing.T) {
	s := newSys(t, 2)
	a := s.GPU(0).Alloc(4, 4)
	b := s.GPU(1).Alloc(4, 4)
	c := s.GPU(0).Alloc(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected cross-device kernel panic")
		}
	}()
	s.GPU(0).Gemm(false, false, 1, a, b, 0, c)
}

func TestTraceRecordsEvents(t *testing.T) {
	s := newSys(t, 1)
	tr := obs.NewTrace()
	s.SetTracer(tr)
	src := s.CPU().Alloc(2, 2)
	dst := s.GPU(0).Alloc(2, 2)
	s.Transfer(src, dst)
	s.GPU(0).Run("custom", 100, func(int) {})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Cat != obs.PhasePCIe || !strings.Contains(spans[0].Name, "->") {
		t.Fatalf("first span wrong: %+v", spans[0])
	}
	if spans[1].Name != "custom" || spans[1].Args["flops"] != 100 {
		t.Fatalf("second span wrong: %+v", spans[1])
	}
	s.SetTracer(nil)
	s.GPU(0).Run("untraced", 100, func(int) {})
	if tr.Len() != 2 {
		t.Fatal("a detached tracer must stop receiving spans")
	}
}

func TestBufferView(t *testing.T) {
	s := newSys(t, 1)
	b := s.GPU(0).Alloc(4, 4)
	v := b.View(1, 1, 2, 2)
	v.UnsafeData().Set(0, 0, 5)
	if b.UnsafeData().At(1, 1) != 5 {
		t.Fatal("buffer view does not alias parent")
	}
	if v.Device() != s.GPU(0) {
		t.Fatal("view residency wrong")
	}
}

func TestSimMakespan(t *testing.T) {
	s := newSys(t, 2)
	s.GPU(0).Run("k", 1e9, func(int) {})
	if s.TimelineMakespan() <= 0 {
		t.Fatal("makespan should be positive after work")
	}
}

func TestTrsmKernel(t *testing.T) {
	s := newSys(t, 1)
	g := s.GPU(0)
	rng := matrix.NewRNG(2)
	n := 6
	lm := matrix.Random(n, n, rng)
	for i := 0; i < n; i++ {
		lm.Set(i, i, 3)
	}
	bm := matrix.Random(n, 4, rng)
	l, b := g.Alloc(n, n), g.Alloc(n, 4)
	l.UnsafeData().CopyFrom(lm)
	b.UnsafeData().CopyFrom(bm)
	g.Trsm(blas.Left, true, false, false, 1, l, b)
	want := bm.Clone()
	blas.Trsm(blas.Left, true, false, false, 1, lm, want)
	if !b.UnsafeData().EqualWithin(want, 1e-13) {
		t.Fatal("device Trsm wrong")
	}
}

func TestUtilization(t *testing.T) {
	s := newSys(t, 2)
	s.GPU(0).Run("k", 2e9, func(int) {})
	s.GPU(1).Run("k", 1e9, func(int) {})
	src := s.CPU().Alloc(64, 64)
	dst := s.GPU(0).Alloc(64, 64)
	s.Transfer(src, dst)
	stats := s.Utilization()
	if len(stats) != 5 { // CPU + 2 GPUs + 2 links
		t.Fatalf("stats = %d", len(stats))
	}
	sum := 0.0
	byName := map[string]DeviceStat{}
	for _, st := range stats {
		sum += st.Share
		byName[st.Name] = st
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	if byName["GPU0"].SimSecs <= byName["GPU1"].SimSecs {
		t.Fatal("GPU0 did twice the work")
	}
	if got := byName["PCIe0"].SimSecs; !near(got, s.PCIeSimTime()) || got <= 0 {
		t.Fatalf("PCIe0 busy %g, want the transfer's %g", got, s.PCIeSimTime())
	}
	if byName["PCIe1"].SimSecs != 0 {
		t.Fatal("PCIe1 billed for a transfer it did not carry")
	}
}

func TestEventsStampedWithSimTime(t *testing.T) {
	s := newSys(t, 1)
	tr := obs.NewTrace()
	s.SetTracer(tr)
	g := s.GPU(0)
	g.Run("k1", 1e9, func(int) {})
	g.Run("k2", 2e9, func(int) {})
	src := s.CPU().Alloc(8, 8)
	dst := g.Alloc(8, 8)
	s.Transfer(src, dst)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	k1, k2, p := spanEnd(spans[0]), spanEnd(spans[1]), spanEnd(spans[2])
	if k1 <= 0 || k2 <= k1 {
		t.Fatalf("kernel end times not increasing: %g, %g", k1, k2)
	}
	if want := g.SimTime(); !near(k2, want) {
		t.Fatalf("last kernel ends at %g, want device clock %g", k2, want)
	}
	// The transfer is ordered after the kernels on the shared logical
	// clock: it ends at the kernels' end plus the PCIe time.
	if want := g.SimTime() + s.PCIeSimTime(); !near(p, want) {
		t.Fatalf("pcie span ends at %g, want logical clock %g", p, want)
	}
}

func TestResetClearsSimState(t *testing.T) {
	s := newSys(t, 2)
	tr := obs.NewTrace()
	s.SetTracer(tr)
	s.SetTransferHook(func(from, to *Device, payload *matrix.Dense) {})
	s.GPU(0).Run("k", 1e9, func(int) {})
	src := s.CPU().Alloc(4, 4)
	dst := s.GPU(1).Alloc(4, 4)
	s.Transfer(src, dst)
	if s.TimelineMakespan() <= 0 || s.BytesTransferred() == 0 || tr.Len() == 0 {
		t.Fatal("precondition: system should have accumulated state")
	}
	s.Reset()
	if s.TimelineMakespan() != 0 {
		t.Fatalf("makespan %g after Reset, want 0", s.TimelineMakespan())
	}
	if s.BytesTransferred() != 0 || s.PCIeSimTime() != 0 {
		t.Fatal("PCIe counters survive Reset")
	}
	s.mu.Lock()
	hook, tracer := s.hook, s.tracer
	s.mu.Unlock()
	if hook != nil || tracer != nil {
		t.Fatal("per-run attachments (hook/tracer) survive Reset")
	}
	for _, d := range append([]*Device{s.CPU()}, s.GPUs()...) {
		if d.SimTime() != 0 {
			t.Fatalf("%s clock %g after Reset, want 0", d.Name(), d.SimTime())
		}
	}
}

func TestTracerReceivesSimSpans(t *testing.T) {
	s := newSys(t, 1)
	tr := obs.NewTrace()
	s.SetTracer(tr)
	if s.Tracer() != tr {
		t.Fatal("Tracer accessor")
	}
	g := s.GPU(0)
	g.Run("potf2", 2e9, func(int) {})
	src := s.CPU().Alloc(8, 8)
	dst := g.Alloc(8, 8)
	s.Transfer(src, dst)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (kernel + pcie)", len(spans))
	}
	k, p := spans[0], spans[1]
	if k.Name != "potf2" || k.Cat != "kernel" || k.Proc != obs.ProcSim || k.Track != "GPU0" {
		t.Fatalf("kernel span: %+v", k)
	}
	if k.DurUS <= 0 || k.Args["flops"] != 2e9 {
		t.Fatalf("kernel span duration/args: %+v", k)
	}
	if p.Name != "CPU->GPU0" || p.Cat != obs.PhasePCIe || p.Track != "PCIe0" || p.Args["bytes"] != 8*8*8 {
		t.Fatalf("pcie span: %+v", p)
	}
	// The span timeline must agree with the simulated clocks.
	if end := (k.StartUS + k.DurUS) / 1e6; end != g.SimTime() {
		t.Fatalf("kernel span ends at %g, device clock %g", end, g.SimTime())
	}
	s.Reset()
	if s.Tracer() != nil {
		t.Fatal("Reset must detach the tracer")
	}
	g.Run("k", 1e9, func(int) {})
	if tr.Len() != 2 {
		t.Fatal("detached tracer must stop receiving spans")
	}
}

func TestTransferFeedsDefaultRegistry(t *testing.T) {
	before := obs.Default().Snapshot()
	s := newSys(t, 1)
	src := s.CPU().Alloc(4, 4)
	dst := s.GPU(0).Alloc(4, 4)
	s.Transfer(src, dst)
	d := obs.Default().Snapshot().Diff(before)
	if got := d.CounterValue(obs.MetricPCIeBytes); got != 8*4*4 {
		t.Fatalf("pcie bytes delta = %d, want %d", got, 8*4*4)
	}
	if got := d.CounterValue(obs.MetricPCIeTransfers); got != 1 {
		t.Fatalf("pcie transfers delta = %d, want 1", got)
	}
	if got := d.PhaseSeconds(obs.PhasePCIe); got <= 0 {
		t.Fatalf("pcie phase seconds delta = %g, want > 0", got)
	}
}
