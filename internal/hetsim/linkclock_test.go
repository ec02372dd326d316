package hetsim

import (
	"errors"
	"testing"

	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// loneTransfer returns the logical duration of one transfer of an r-by-c
// payload from device from to device to (-1 is the CPU) on a fresh system
// built from cfg: the cost every rule below is stated in.
func loneTransfer(cfg Config, from, to, r, c int, reliable bool) float64 {
	s := New(cfg)
	dev := func(i int) *Device {
		if i < 0 {
			return s.CPU()
		}
		return s.GPU(i)
	}
	src, dst := dev(from).Alloc(r, c), dev(to).Alloc(r, c)
	if reliable {
		s.TransferReliable(src, dst)
	} else {
		s.Transfer(src, dst)
	}
	return s.TimelineMakespan()
}

// TestLinkClockBroadcastOverlaps: a panel broadcast to four GPUs crosses
// four links at once, so it costs one transfer, and the kernel that
// follows waits for the last copy to land.
func TestLinkClockBroadcastOverlaps(t *testing.T) {
	const gpus, r, c = 4, 64, 32
	one := loneTransfer(DefaultConfig(gpus), -1, 0, r, c, true)
	s := New(DefaultConfig(gpus))
	tr := obs.NewTrace()
	s.SetTracer(tr)
	panel := s.CPU().AllocFrom(matrix.Random(r, c, matrix.NewRNG(3)))
	for g := 0; g < gpus; g++ {
		s.TransferReliable(panel, s.GPU(g).Alloc(r, c))
	}
	if mk := s.TimelineMakespan(); mk != one {
		t.Fatalf("broadcast makespan %g, want one transfer's %g", mk, one)
	}
	// Each copy's Fletcher passes and wire attempt tile its link's track.
	ends := map[string]float64{}
	for _, sp := range tr.Spans() {
		if sp.StartUS < ends[sp.Track]-1e-9 {
			t.Fatalf("span %s on %s starts at %g us, before the previous one ends at %g us", sp.Name, sp.Track, sp.StartUS, ends[sp.Track])
		}
		ends[sp.Track] = sp.StartUS + sp.DurUS
	}
	if len(ends) != gpus || !near(ends["PCIe3"]/1e6, one) {
		t.Fatalf("trace tracks end at %v, want %d link tracks ending at %g s", ends, gpus, one)
	}
	s.GPU(2).Run("k", 1e9, func(int) {}) // 1 ms
	if mk, want := s.TimelineMakespan(), one+1e-3; mk != want {
		t.Fatalf("broadcast + kernel makespan %g, want %g", mk, want)
	}
	for _, st := range s.Utilization()[1+gpus:] {
		if !near(st.SimSecs, s.PCIeSimTime()/gpus) || st.Util > 1 {
			t.Fatalf("%s busy %g util %g, want a quarter of %g", st.Name, st.SimSecs, st.Util, s.PCIeSimTime())
		}
	}
}

// TestLinkClockSameLinkSerializes: two copies out of one GPU share its
// link and run one after the other; copies on disjoint links overlap.
func TestLinkClockSameLinkSerializes(t *testing.T) {
	const r, c = 48, 48
	one := loneTransfer(DefaultConfig(4), 0, 1, r, c, false)
	s := New(DefaultConfig(4))
	src := s.GPU(0).Alloc(r, c)
	s.Transfer(src, s.GPU(1).Alloc(r, c))
	s.Transfer(src, s.GPU(2).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != 2*one {
		t.Fatalf("two copies out of GPU0 end at %g, want %g", mk, 2*one)
	}

	s = New(DefaultConfig(4))
	s.Transfer(s.GPU(0).Alloc(r, c), s.GPU(1).Alloc(r, c))
	s.Transfer(s.GPU(2).Alloc(r, c), s.GPU(3).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != one {
		t.Fatalf("copies on disjoint links end at %g, want %g", mk, one)
	}
}

// TestLinkClockFabricSerializes: transfers between nodes share the one
// inter-node fabric, so they run one after another even on disjoint GPU
// links, while a copy inside node 0 overlaps them; Reset frees the fabric.
func TestLinkClockFabricSerializes(t *testing.T) {
	const r, c = 48, 48
	cfg := DefaultConfig(4)
	cfg.Nodes = 2 // GPU0 and GPU2 on node 0, GPU1 and GPU3 on node 1
	cross := loneTransfer(cfg, 0, 1, r, c, false)
	local := loneTransfer(cfg, -1, 0, r, c, false)
	if local >= cross {
		t.Fatalf("a copy inside node 0 takes %g, want less than one between nodes %g", local, cross)
	}
	s := New(cfg)
	s.Transfer(s.GPU(0).Alloc(r, c), s.GPU(1).Alloc(r, c))
	s.Transfer(s.GPU(2).Alloc(r, c), s.GPU(3).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != 2*cross {
		t.Fatalf("two copies between nodes end at %g, want %g", mk, 2*cross)
	}

	s = New(cfg)
	panel := s.CPU().Alloc(r, c)
	for g := 0; g < 4; g++ {
		s.Transfer(panel, s.GPU(g).Alloc(r, c))
	}
	if mk := s.TimelineMakespan(); mk != 2*cross {
		t.Fatalf("broadcast to two nodes ends at %g, want the two fabric copies' %g", mk, 2*cross)
	}
	s.Reset()
	s.Transfer(s.GPU(2).Alloc(r, c), s.GPU(3).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != cross {
		t.Fatalf("first copy between nodes after Reset ends at %g, want %g", mk, cross)
	}
}

// TestLinkClockPullEndsBeforeCPUKernel: a copy into the CPU is
// synchronous, so the next CPU kernel starts where the pull ends, and so
// does the next copy, even on a link the pull left free.
func TestLinkClockPullEndsBeforeCPUKernel(t *testing.T) {
	const r, c = 64, 64
	pull := loneTransfer(DefaultConfig(2), 1, -1, r, c, true)
	push := loneTransfer(DefaultConfig(2), -1, 0, r, c, true)
	s := New(DefaultConfig(2))
	s.TransferReliable(s.GPU(1).Alloc(r, c), s.CPU().Alloc(r, c))
	s.TransferReliable(s.CPU().Alloc(r, c), s.GPU(0).Alloc(r, c))
	if mk, want := s.TimelineMakespan(), pull+push; !near(mk, want) {
		t.Fatalf("pull then push end at %g, want %g: the push started before the pull landed", mk, want)
	}

	s = New(DefaultConfig(2))
	tr := obs.NewTrace()
	s.SetTracer(tr)
	s.GPU(0).Run("tmu", 1e9, func(int) {}) // 1 ms on GPU0
	s.TransferReliable(s.GPU(1).Alloc(r, c), s.CPU().Alloc(r, c))
	s.CPU().Run("panel", 1e8, func(int) {}) // 2 ms at 50 GFLOPS
	spans := tr.Spans()
	panel := spans[len(spans)-1]
	if panel.Name != "panel" {
		t.Fatalf("last span %q, want the CPU kernel", panel.Name)
	}
	if start := panel.StartUS / 1e6; !near(start, 1e-3+pull) {
		t.Fatalf("CPU kernel starts at %g, want the pull's end %g", start, 1e-3+pull)
	}
}

// TestLinkClockCPUKernelSkipsCopyIn: a copy into a GPU writes only GPU
// memory, which no CPU kernel reads, so a CPU kernel issued after a
// Restore into a GPU starts at the serial floor while the copy is in
// flight; a GPU kernel, on any GPU, and a stream launch still start where
// the copy arrives, and a pull still orders the next CPU kernel after it.
func TestLinkClockCPUKernelSkipsCopyIn(t *testing.T) {
	const r, c = 64, 64
	copyIn := loneTransfer(DefaultConfig(2), -1, 0, r, c, true)
	pull := loneTransfer(DefaultConfig(2), 1, -1, r, c, true)
	// start issues a Restore into GPU0, then runs next, and returns the
	// simulated start of the last kernel next ran.
	start := func(next func(s *System)) float64 {
		s := New(DefaultConfig(2))
		tr := obs.NewTrace()
		s.SetTracer(tr)
		s.Restore([]*matrix.Dense{matrix.NewDense(r, c)}, []*Buffer{s.GPU(0).Alloc(r, c)})
		next(s)
		spans := tr.Spans()
		last := spans[len(spans)-1]
		if last.Cat != "kernel" {
			t.Fatalf("last span %q is not a kernel", last.Name)
		}
		return last.StartUS / 1e6
	}
	if at := start(func(s *System) { s.CPU().Run("panel", 1e8, func(int) {}) }); at != 0 {
		t.Fatalf("CPU kernel starts at %g, want the serial floor 0", at)
	}
	for g := 0; g < 2; g++ {
		if at := start(func(s *System) { s.GPU(g).Run("k", 1e9, func(int) {}) }); !near(at, copyIn) {
			t.Fatalf("GPU%d kernel starts at %g, want the copy's arrival %g", g, at, copyIn)
		}
	}
	launched := start(func(s *System) {
		st := s.GPU(1).NewStream()
		defer st.Close()
		st.Launch("k", func() { s.GPU(1).Run("k", 1e9, func(int) {}) })
		st.Record().Wait()
	})
	if !near(launched, copyIn) {
		t.Fatalf("launched kernel starts at %g, want the copy's arrival %g", launched, copyIn)
	}
	pulled := start(func(s *System) {
		s.TransferReliable(s.GPU(1).Alloc(r, c), s.CPU().Alloc(r, c))
		s.CPU().Run("panel", 1e8, func(int) {})
	})
	if !near(pulled, pull) {
		t.Fatalf("CPU kernel after a pull starts at %g, want the pull's end %g", pulled, pull)
	}
}

// TestLinkClockStreamWaitsForCopy: a stream launched after a copy into its
// GPU does not start before the copy lands.
func TestLinkClockStreamWaitsForCopy(t *testing.T) {
	const r, c = 64, 64
	copyIn := loneTransfer(DefaultConfig(1), -1, 0, r, c, true)
	s := New(DefaultConfig(1))
	g := s.GPU(0)
	s.TransferReliable(s.CPU().Alloc(r, c), g.Alloc(r, c))
	st := g.NewStream()
	defer st.Close()
	st.Launch("k", func() { g.Run("k", 1e9, func(int) {}) })
	st.Record().Wait()
	if mk, want := s.TimelineMakespan(), copyIn+1e-3; mk != want {
		t.Fatalf("makespan %g, want the copy %g plus the 1 ms kernel", mk, want)
	}
}

// TestLinkClockExhaustedRetriesBillLink: a TransferReliable that exhausts
// its retries still holds its link until its last attempt ends, so the
// next copy on that link starts after it; another link stays free.
func TestLinkClockExhaustedRetriesBillLink(t *testing.T) {
	const r, c = 32, 32
	one := loneTransfer(DefaultConfig(2), -1, 0, r, c, true)
	s := New(DefaultConfig(2))
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkFlap, Count: 20})
	src := s.CPU().AllocFrom(matrix.Random(r, c, matrix.NewRNG(4)))
	var le *LinkError
	if err := catch(func() { s.TransferReliable(src, s.GPU(0).Alloc(r, c)) }); !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LinkError", err)
	}
	failed := s.TimelineMakespan()
	if failed <= one {
		t.Fatalf("failed transfer ends at %g, want past one clean transfer %g", failed, one)
	}
	if busy := s.Utilization()[3]; busy.Name != "PCIe0" || busy.SimSecs <= 0 {
		t.Fatalf("link row %+v, want PCIe0 billed for the failed attempts", busy)
	}

	s.TransferReliable(src, s.GPU(1).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != failed {
		t.Fatalf("copy on the free link moved the makespan to %g from %g", mk, failed)
	}
	s.ArmLinkFault(0, LinkFaultPlan{})
	s.TransferReliable(src, s.GPU(0).Alloc(r, c))
	if mk, want := s.TimelineMakespan(), failed+one; !near(mk, want) {
		t.Fatalf("copy on the failed link ends at %g, want %g", mk, want)
	}
}

// TestLinkClockResetZeroesFrontiers: Reset clears every link frontier and
// the pending arrival frontier with the rest of the clock.
func TestLinkClockResetZeroesFrontiers(t *testing.T) {
	const r, c = 64, 64
	one := loneTransfer(DefaultConfig(2), -1, 1, r, c, false)
	s := New(DefaultConfig(2))
	for g := 0; g < 2; g++ {
		s.Transfer(s.CPU().Alloc(r, c), s.GPU(g).Alloc(r, c))
	}
	s.Transfer(s.GPU(0).Alloc(r, c), s.GPU(1).Alloc(r, c))
	s.Reset()
	if mk := s.TimelineMakespan(); mk != 0 {
		t.Fatalf("makespan %g after Reset, want 0", mk)
	}
	for _, st := range s.Utilization() {
		if st.SimSecs != 0 {
			t.Fatalf("%s busy %g after Reset", st.Name, st.SimSecs)
		}
	}
	s.GPU(0).Run("k", 1e9, func(int) {})
	if mk := s.TimelineMakespan(); mk != 1e-3 {
		t.Fatalf("first kernel after Reset ends at %g, want 0.001", mk)
	}
	s.Reset()
	s.Transfer(s.CPU().Alloc(r, c), s.GPU(1).Alloc(r, c))
	if mk := s.TimelineMakespan(); mk != one {
		t.Fatalf("first copy after Reset ends at %g, want %g", mk, one)
	}
}

// stagingCols allocates one r-by-c column of random data on each listed
// GPU and returns the buffers with the column views of one host matrix,
// side by side, to stage them into.
func stagingCols(s *System, gpus []int, r, c int) (srcs []*Buffer, dsts []*matrix.Dense) {
	host := matrix.NewDense(r, c*len(gpus))
	for i, g := range gpus {
		b := s.GPU(g).Alloc(r, c)
		b.UnsafeData().CopyFrom(matrix.Random(r, c, matrix.NewRNG(uint64(10+g))))
		srcs = append(srcs, b)
		dsts = append(dsts, host.View(0, i*c, r, c))
	}
	return srcs, dsts
}

// TestLinkClockStagingOverlaps: one Checkpoint staging a column from each
// of 2 or 4 GPUs crosses every link at once, so it costs one column's
// copy, and each column lands in place in the host matrix it was given.
func TestLinkClockStagingOverlaps(t *testing.T) {
	const r, c = 64, 32
	for _, gpus := range []int{2, 4} {
		one := loneTransfer(DefaultConfig(gpus), 0, -1, r, c, true)
		s := New(DefaultConfig(gpus))
		all := make([]int, gpus)
		for g := range all {
			all[g] = g
		}
		srcs, dsts := stagingCols(s, all, r, c)
		s.Checkpoint(srcs, dsts)
		if mk := s.TimelineMakespan(); mk != one {
			t.Fatalf("%d GPUs: staging ends at %g, want one column's copy %g", gpus, mk, one)
		}
		for i, src := range srcs {
			if !dsts[i].Equal(src.UnsafeData()) {
				t.Fatalf("%d GPUs: column %d did not land in its host view", gpus, i)
			}
		}
	}
}

// stagingBack allocates one r-by-c buffer on each listed GPU: the
// destinations of a Restore from host columns like stagingCols's.
func stagingBack(s *System, gpus []int, r, c int) []*Buffer {
	var bufs []*Buffer
	for _, g := range gpus {
		bufs = append(bufs, s.GPU(g).Alloc(r, c))
	}
	return bufs
}

// TestLinkClockStagingOneLatencyPerLink: a staging is one message per
// link. A Checkpoint, or a Restore, of w strips over one link pays the
// link latency once plus w times each strip's bandwidth and Fletcher
// terms, and the same holds per link when two GPUs stage w strips each.
// Two stagings in a row pay the latency once each; stagings nested in an
// outer CoalesceTransfers window pay it once between them.
func TestLinkClockStagingOneLatencyPerLink(t *testing.T) {
	const r, c, w = 64, 32, 4
	cfg := DefaultConfig(2)
	lat := cfg.PCIeLatencyUS / 1e6
	pull := loneTransfer(cfg, 0, -1, r, c, true)
	push := loneTransfer(cfg, -1, 0, r, c, true)
	oneLink := make([]int, w) // w strips, all on GPU0
	twoLinks := append(make([]int, w), 1, 1, 1, 1)
	for _, tc := range []struct {
		name                string
		gpus                []int
		restore, nested     bool
		stagings, latencies int
	}{
		{"checkpoint", oneLink, false, false, 1, 1},
		{"restore", oneLink, true, false, 1, 1},
		{"checkpoint on two links", twoLinks, false, false, 1, 1},
		{"two checkpoints", oneLink, false, false, 2, 2},
		{"two restores", oneLink, true, false, 2, 2},
		{"nested checkpoints", oneLink, false, true, 2, 1},
		{"nested restores", oneLink, true, true, 2, 1},
	} {
		s := New(cfg)
		srcs, host := stagingCols(s, tc.gpus, r, c)
		back := stagingBack(s, tc.gpus, r, c)
		body := func() {
			for range tc.stagings {
				if tc.restore {
					s.Restore(host, back)
				} else {
					s.Checkpoint(srcs, host)
				}
			}
		}
		if tc.nested {
			s.CoalesceTransfers(body)
		} else {
			body()
		}
		one := pull
		if tc.restore {
			one = push
		}
		// Every copy on a link costs a lone copy less its latency; the
		// latencies are paid tc.latencies times in all.
		want := float64(tc.stagings*w)*(one-lat) + float64(tc.latencies)*lat
		if mk := s.TimelineMakespan(); !near(mk, want) {
			t.Errorf("%s: ends at %g, want %g", tc.name, mk, want)
		}
		for i, b := range back {
			if tc.restore && !b.UnsafeData().Equal(host[i]) {
				t.Errorf("%s: strip %d did not land in its buffer", tc.name, i)
			}
		}
	}
}

// TestLinkClockStagingRetransmits: a corrupted copy inside a staging is
// retransmitted exactly as a loose reliable copy is, with the same backoff
// and the same retransmit count; only the link latencies the staging
// coalesces differ, one per loose copy and one for the resent attempt.
func TestLinkClockStagingRetransmits(t *testing.T) {
	const r, c, w = 64, 32, 4
	cfg := DefaultConfig(1)
	lat := cfg.PCIeLatencyUS / 1e6
	pull := loneTransfer(cfg, 0, -1, r, c, true)
	corrupt := LinkFaultPlan{Mode: LinkCorrupt, AfterTransfers: 1}
	run := func(loose, faulty bool) (mk float64, retransmits uint64) {
		s := New(cfg)
		srcs, host := stagingCols(s, make([]int, w), r, c)
		if faulty {
			s.ArmLinkFault(0, corrupt)
		}
		before := transferRetransmits.Value()
		if loose {
			for i, src := range srcs {
				s.TransferReliable(src, &Buffer{dev: s.CPU(), m: host[i]})
			}
		} else {
			s.Checkpoint(srcs, host)
		}
		for i, src := range srcs {
			if !host[i].Equal(src.UnsafeData()) {
				t.Fatalf("loose=%v: strip %d arrived damaged", loose, i)
			}
		}
		return s.TimelineMakespan(), transferRetransmits.Value() - before
	}
	clean, _ := run(false, false)
	staged, n := run(false, true)
	loose, nLoose := run(true, true)
	if n != 1 || nLoose != 1 {
		t.Fatalf("retransmits: %d in the staging, %d loose, want 1 each", n, nLoose)
	}
	// The resent attempt skips the latency but waits out a backoff of
	// [1, 1.25) latencies first: more than the bare resent wire.
	if extra := staged - clean; extra <= pull-lat || extra >= pull+lat/4 {
		t.Fatalf("retransmit inside the staging costs %g, want a resent copy %g plus a backoff of [%g, %g)",
			extra, pull-lat, lat, 1.25*lat)
	}
	if !near(loose-staged, w*lat) {
		t.Fatalf("loose copies end at %g, the staging at %g: want %d latencies apart", loose, staged, w)
	}
}

// TestLinkClockStagingJoinsAtLatestArrival: each staged copy starts from
// the host floor on its own link, and the serial floor after Checkpoint
// is the latest arrival: the next CPU kernel starts there. A pull issued
// outside Checkpoint still moves the floor at once.
func TestLinkClockStagingJoinsAtLatestArrival(t *testing.T) {
	const r, c = 64, 32
	pull := loneTransfer(DefaultConfig(2), 0, -1, r, c, true)
	push := loneTransfer(DefaultConfig(2), -1, 1, r, c, true)
	s := New(DefaultConfig(2))
	tr := obs.NewTrace()
	s.SetTracer(tr)
	s.TransferReliable(s.CPU().Alloc(r, c), s.GPU(1).Alloc(r, c)) // link 1 busy until push
	srcs, dsts := stagingCols(s, []int{1, 0}, r, c)
	s.Checkpoint(srcs, dsts)
	s.CPU().Run("panel", 1e8, func(int) {}) // 2 ms at 50 GFLOPS
	ends := map[string]float64{}
	var panel obs.Span
	for _, sp := range tr.Spans() {
		ends[sp.Track] = sp.StartUS + sp.DurUS
		if sp.Name == "panel" {
			panel = sp
		}
	}
	if end := ends["PCIe0"] / 1e6; !near(end, pull) {
		t.Fatalf("GPU0's column lands at %g, want %g: it waited for the copy on link 1", end, pull)
	}
	if start := panel.StartUS / 1e6; !near(start, push+pull) {
		t.Fatalf("CPU kernel starts at %g, want the latest arrival %g", start, push+pull)
	}

	s = New(DefaultConfig(2))
	for g := 0; g < 2; g++ {
		s.TransferReliable(s.GPU(g).Alloc(r, c), s.CPU().Alloc(r, c))
	}
	if mk := s.TimelineMakespan(); !near(mk, 2*pull) {
		t.Fatalf("two pulls outside a staging end at %g, want %g", mk, 2*pull)
	}
}

// TestLinkClockStagingAbortHoldsLinks: a staging cut short by a lost GPU
// or an exhausted link aborts with the typed error, still bills and holds
// the links its copies used, and still joins the serial floor; Reset then
// zeroes every frontier.
func TestLinkClockStagingAbortHoldsLinks(t *testing.T) {
	const r, c = 32, 32
	pull := loneTransfer(DefaultConfig(2), 0, -1, r, c, true)
	s := New(DefaultConfig(2))
	srcs, dsts := stagingCols(s, []int{0, 1}, r, c)
	s.ArmFault(s.GPU(1), FaultPlan{Mode: FaultCrash})
	if err := catch(func() { s.Checkpoint(srcs, dsts) }); !isLost(err) {
		t.Fatalf("staging from a lost GPU: err = %v, want *DeviceLostError", err)
	}
	if u := s.Utilization(); u[3].SimSecs <= 0 || u[4].SimSecs != 0 {
		t.Fatalf("link rows %+v %+v, want PCIe0 billed for its copy and PCIe1 idle", u[3], u[4])
	}
	s.CPU().Run("panel", 1e8, func(int) {})
	if mk, want := s.TimelineMakespan(), pull+2e-3; !near(mk, want) {
		t.Fatalf("CPU kernel after the aborted staging ends at %g, want %g", mk, want)
	}

	s.Reset()
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkFlap, Count: 20})
	var le *LinkError
	if err := catch(func() { s.Checkpoint(srcs, dsts) }); !errors.As(err, &le) || le.Link != 1 {
		t.Fatalf("staging over an exhausted link: err = %v, want *LinkError on link 1", err)
	}
	failed := s.TimelineMakespan()
	if busy := s.Utilization()[4]; failed <= pull || busy.SimSecs <= 0 {
		t.Fatalf("failed staging ends at %g with %s busy %g, want past %g and billed", failed, busy.Name, busy.SimSecs, pull)
	}
	s.CPU().Run("panel", 1e8, func(int) {})
	if mk, want := s.TimelineMakespan(), failed+2e-3; !near(mk, want) {
		t.Fatalf("CPU kernel after the failed staging ends at %g, want %g", mk, want)
	}

	// A Restore cut short by a lost GPU holds the link it used as well,
	// and closes its coalescing window: the next copy pays a full latency.
	push := loneTransfer(DefaultConfig(2), -1, 0, r, c, true)
	s.Reset()
	back := stagingBack(s, []int{0, 1}, r, c)
	s.ArmFault(s.GPU(1), FaultPlan{Mode: FaultCrash})
	if err := catch(func() { s.Restore(dsts, back) }); !isLost(err) {
		t.Fatalf("restore onto a lost GPU: err = %v, want *DeviceLostError", err)
	}
	if u := s.Utilization(); u[3].SimSecs <= 0 || u[4].SimSecs != 0 {
		t.Fatalf("link rows %+v %+v, want PCIe0 billed for its copy and PCIe1 idle", u[3], u[4])
	}
	s.TransferReliable(&Buffer{dev: s.CPU(), m: dsts[0]}, back[0])
	if mk := s.TimelineMakespan(); !near(mk, 2*push) {
		t.Fatalf("copy after the aborted restore ends at %g, want two full copies %g", mk, 2*push)
	}

	s.Reset()
	if mk := s.TimelineMakespan(); mk != 0 {
		t.Fatalf("makespan %g after Reset, want 0", mk)
	}
	s.Checkpoint(srcs, dsts)
	if mk := s.TimelineMakespan(); mk != pull {
		t.Fatalf("first staging after Reset ends at %g, want %g", mk, pull)
	}
}
