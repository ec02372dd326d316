package hetsim

import (
	"errors"
	"testing"

	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// TestStreamExecutesInLaunchOrder: closures on one stream run in launch
// order, and a recorded event completes only after everything launched
// before it.
func TestStreamExecutesInLaunchOrder(t *testing.T) {
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	st := g.NewStream()
	defer st.Close()

	var order []int
	for i := 0; i < 8; i++ {
		i := i
		st.Launch("step", func() { order = append(order, i) })
	}
	st.Record().Wait()
	if len(order) != 8 {
		t.Fatalf("ran %d of 8 launches", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("launch order violated: %v", order)
		}
	}
}

// TestStreamOverlapShrinksMakespan: the same kernels cost the serial sum
// when run synchronously but only the per-stream maximum when spread over
// concurrent streams — the clock models true overlap.
func TestStreamOverlapShrinksMakespan(t *testing.T) {
	const flops = 5e8 // 0.5 ms at the default 1000 GFLOPS
	serial := func() float64 {
		s := New(DefaultConfig(2))
		for g := 0; g < 2; g++ {
			for i := 0; i < 4; i++ {
				s.GPU(g).Run("k", flops, func(int) {})
			}
		}
		return s.TimelineMakespan()
	}()

	s := New(DefaultConfig(2))
	var evs []*StreamEvent
	for g := 0; g < 2; g++ {
		st := s.GPU(g).NewStream()
		defer st.Close()
		for i := 0; i < 4; i++ {
			st.Launch("k", func() { st.dev.Run("k", flops, func(int) {}) })
		}
		evs = append(evs, st.Record())
	}
	for _, ev := range evs {
		ev.Wait()
	}
	overlapped := s.TimelineMakespan()

	if overlapped >= serial {
		t.Fatalf("overlap did not shrink makespan: %.6f vs serial %.6f", overlapped, serial)
	}
	// Two equal streams halve the makespan exactly on the logical clock.
	if want := serial / 2; overlapped != want {
		t.Fatalf("overlapped makespan %.6f, want %.6f (half the serial sum)", overlapped, want)
	}
}

// TestStreamInheritsSerialFrontier: work launched after a synchronous
// operation cannot logically start before it, and Wait folds the stream
// frontier back into the serial timeline.
func TestStreamInheritsSerialFrontier(t *testing.T) {
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	g.Run("pre", 1e9, func(int) {}) // 1 ms on the serial timeline

	st := g.NewStream()
	defer st.Close()
	st.Launch("k", func() { g.Run("k", 1e9, func(int) {}) })
	st.Record().Wait()
	if mk := s.TimelineMakespan(); mk != 2e-3 {
		t.Fatalf("stream op ignored the serial frontier: makespan %.6f at the join, want 0.002", mk)
	}

	// The host has joined: a later synchronous op starts after the stream.
	g.Run("post", 1e9, func(int) {})
	if mk := s.TimelineMakespan(); mk != 3e-3 {
		t.Fatalf("serial timeline did not absorb the stream frontier: makespan %.6f, want 0.003", mk)
	}
}

// TestStreamAbortRepanicsAtWait: a fail-stop abort inside a launched
// closure poisons the stream (the rest of the queue is skipped) and is
// re-raised at Wait, where RecoverAbort yields the usual typed error.
func TestStreamAbortRepanicsAtWait(t *testing.T) {
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash, AfterOps: 1})

	st := g.NewStream()
	defer st.Close()
	ranAfter := false
	st.Launch("ok", func() { g.Run("k", 10, func(int) {}) })
	st.Launch("boom", func() { g.Run("k", 10, func(int) {}) })
	st.Launch("skipped", func() { ranAfter = true })
	ev := st.Record()

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = RecoverAbort(r)
			}
		}()
		ev.Wait()
		return nil
	}()
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want DeviceLostError", err)
	}
	if lost.Device != "GPU0" {
		t.Fatalf("lost device = %q", lost.Device)
	}
	if ranAfter {
		t.Fatal("queue entry after the abort still executed")
	}
}

// TestStreamCloseNeverPanics: Close drains a poisoned stream without
// re-raising the captured abort, so deferred cleanup is safe.
func TestStreamCloseNeverPanics(t *testing.T) {
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	s.ArmFault(g, FaultPlan{Mode: FaultCrash})
	st := g.NewStream()
	st.Launch("boom", func() { g.Run("k", 10, func(int) {}) })
	st.Close() // must not panic and must not deadlock
}

// TestStreamEventSeqUnderConcurrency: the kernel spans of two concurrent
// streams land on the logical clock in each stream's launch sequence. Each
// kernel starts at max(device availability, stream timeline floor), so on
// independent devices the k-th kernel of a stream ends at k durations.
func TestStreamEventSeqUnderConcurrency(t *testing.T) {
	s := New(DefaultConfig(2))
	tr := obs.NewTrace()
	s.SetTracer(tr)
	const flops = 1e6
	var evs []*StreamEvent
	for g := 0; g < 2; g++ {
		st := s.GPU(g).NewStream()
		defer st.Close()
		dev := s.GPU(g)
		for i := 0; i < 8; i++ {
			st.Launch("k", func() { dev.Run("k", flops, func(int) {}) })
		}
		evs = append(evs, st.Record())
	}
	for _, ev := range evs {
		ev.Wait()
	}
	dur := flops / (s.Config().GPUGflops * 1e9)
	perTrack := map[string]int{}
	for _, sp := range tr.Spans() {
		perTrack[sp.Track]++
		if want := float64(perTrack[sp.Track]) * dur; !near(spanEnd(sp), want) {
			t.Fatalf("%s kernel %d ends at %g, want %g", sp.Track, perTrack[sp.Track], spanEnd(sp), want)
		}
	}
	if perTrack["GPU0"] != 8 || perTrack["GPU1"] != 8 {
		t.Fatalf("traced kernels per device = %v, want 8 each", perTrack)
	}
}

// TestTransferDuringStreamIsHostOrdered: a pull the host issues while a
// stream closure is executing on its source GPU is a host-ordered link
// operation, Fletcher passes included, that ends on the serial timeline,
// so it overlaps the stream's kernel instead of delaying it; its checksum
// pass still adds busy time to the GPU.
func TestTransferDuringStreamIsHostOrdered(t *testing.T) {
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	src := s.CPU().AllocFrom(matrix.NewDense(4, 4))
	onGPU := g.Alloc(4, 4)
	s.TransferReliable(src, onGPU)
	floor := s.TimelineMakespan()

	st := g.NewStream()
	defer st.Close()
	started, release := make(chan struct{}), make(chan struct{})
	st.Launch("k", func() {
		close(started)
		<-release
		g.Run("k", 1e9, func(int) {}) // 1 ms
	})
	ev := st.Record()
	<-started
	busy := g.SimTime()
	s.TransferReliable(onGPU, s.CPU().Alloc(4, 4))
	host := s.TimelineMakespan()
	close(release)
	ev.Wait()

	if host <= floor {
		t.Fatalf("host transfer did not advance the serial timeline: %g <= %g", host, floor)
	}
	if want := floor + 1e-3; s.TimelineMakespan() != want {
		t.Fatalf("makespan %g, want %g: the host transfer delayed the stream's kernel", s.TimelineMakespan(), want)
	}
	if got := g.SimTime() - busy; got <= 1e-3 {
		t.Fatalf("GPU busy time grew by %g, want the 1 ms kernel plus a Fletcher pass", got)
	}
}
