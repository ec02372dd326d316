package service

// Chaos coverage for the reliable-transfer layer: PCIe link faults below
// the factorization (scripts/check.sh runs the storm and recovery tests
// with -race). The serving-layer contract extends to links: transient wire
// faults are absorbed by retransmission and never reach the job, a link
// that exhausts its budget is treated like a lost device (release +
// degraded failover), and a tampered checkpoint is never resumed.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// linkSpec is chaosSpec with a link-fault plan armed instead of a device
// fault plan.
func linkSpec(seed uint64, lf map[int]ftla.LinkFaultPlan) JobSpec {
	spec := chaosSpec(seed, nil)
	spec.Config.LinkFault = lf
	return spec
}

// TestChaosLinkExhaustionFailsOverToDegradedSystem is the link-layer
// headline: GPU 2's link flaps longer than the retransmission budget, the
// attempt aborts with a typed link error, the pool repairs and shelves the
// system, and the retry completes on a degraded 3-GPU platform
// — the same failover a dead card gets, because a flaky connector is
// indistinguishable from one host-side.
func TestChaosLinkExhaustionFailsOverToDegradedSystem(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	spec := linkSpec(31, map[int]ftla.LinkFaultPlan{
		2: {Mode: ftla.LinkFlap, Count: 20},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one lost to the link, one degraded rerun)", res.Attempts)
	}
	if got := res.Factors.Report().GPUs; got != 3 {
		t.Fatalf("winning attempt ran on %d GPUs, want 3 (degraded from 4)", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("failover produced a wrong factor: residual %g", res.Residual)
	}
	st := s.Stats()
	if st.LinkLost != 1 {
		t.Fatalf("Stats.LinkLost = %d, want 1", st.LinkLost)
	}
	if st.DeviceLost != 0 {
		t.Fatalf("Stats.DeviceLost = %d, want 0 (no device died; the link did)", st.DeviceLost)
	}
	if st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
	requireShelvedRepaired(t, s, spec.Config.SystemConfig())
}

// TestChaosLinkExhaustionSurfacesTypedError: with no retries left, the job
// terminates with a *FailStopError wrapping the typed *hetsim.LinkError —
// the caller can tell a dead link from a dead device.
func TestChaosLinkExhaustionSurfacesTypedError(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	defer s.Close()

	spec := linkSpec(32, map[int]ftla.LinkFaultPlan{
		0: {Mode: ftla.LinkFlap, Count: 20},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	var fse *FailStopError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FailStopError", err)
	}
	var le *hetsim.LinkError
	if !errors.As(err, &le) {
		t.Fatalf("FailStopError does not wrap the link fault: %v", err)
	}
	if le.Link != 0 || le.Retries != hetsim.DefaultMaxRetransmits {
		t.Fatalf("LinkError = %+v, want Link=0 Retries=%d", le, hetsim.DefaultMaxRetransmits)
	}
}

// TestChaosTransientLinkFaultsAbsorbedBelowJob: corruption and single
// drops on a link never surface to the serving layer at all — the
// retransmission protocol absorbs them on the first attempt, visible only
// in the retransmit counter.
func TestChaosTransientLinkFaultsAbsorbedBelowJob(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	before := obs.Default().Snapshot()
	spec := linkSpec(33, map[int]ftla.LinkFaultPlan{
		1: {Mode: ftla.LinkCorrupt, AfterTransfers: 2, Every: 6},
		3: {Mode: ftla.LinkDrop, AfterTransfers: 5},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (transient faults must be absorbed below the job)", res.Attempts)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("wrong factor under absorbed link faults: residual %g", res.Residual)
	}
	d := obs.Default().Snapshot().Diff(before)
	if d.CounterValue(obs.MetricTransferRetransmits) == 0 {
		t.Fatal("no retransmissions recorded: the armed faults never fired")
	}
	if st := s.Stats(); st.LinkLost != 0 || st.Retries != 0 {
		t.Fatalf("LinkLost/Retries = %d/%d, want 0/0", st.LinkLost, st.Retries)
	}
}

// TestChaosCheckpointTamperFallsBackToRestart: a job loses a GPU with
// checkpoints in hand, but a user OnCheckpoint hook has tampered with the
// snapshot the scheduler captured. The resume attempt must be rejected by
// the integrity check — never silently replayed — and the scheduler falls
// back to a clean restart that still completes the job.
func TestChaosCheckpointTamperFallsBackToRestart(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}})
	defer s.Close()

	before := obs.Default().Snapshot()
	spec := chaosSpec(34, map[int]ftla.FailStopPlan{
		3: {Mode: ftla.FailCrash, AfterOps: 20},
	})
	spec.Config.CheckpointEvery = 1
	spec.Config.OnCheckpoint = func(cp *ftla.Checkpoint) {
		cp.Data[0].Row(0)[0] += 1 // sabotage the snapshot the scheduler holds
	}

	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (crash, rejected resume, clean restart)", res.Attempts)
	}
	if res.Resumed != 1 {
		t.Fatalf("JobResult.Resumed = %d, want 1 (the rejected resume attempt)", res.Resumed)
	}
	if got := res.Factors.Report().GPUs; got != 3 {
		t.Fatalf("winning attempt ran on %d GPUs, want 3", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("restart produced a wrong factor: residual %g", res.Residual)
	}
	st := s.Stats()
	if st.Resumed != 1 || st.Restarts != 1 {
		t.Fatalf("Resumed/Restarts = %d/%d, want 1/1 (resume granted, rejected, restart granted)",
			st.Resumed, st.Restarts)
	}
	d := obs.Default().Snapshot().Diff(before)
	if d.CounterValue(obs.MetricCheckpointIntegrityFailures) == 0 {
		t.Fatal("tampered checkpoint was not rejected by the integrity check")
	}
}

// TestChaosLinkFaultStorm is the randomized link-layer campaign: corrupt,
// drop, flap, and degrade plans on random links across a fleet of
// concurrent jobs. Transient faults must be absorbed, exhausted links must
// fail over, every job must reach a verified terminal state, and the
// scheduler must wind down without leaking goroutines.
func TestChaosLinkFaultStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := obs.Default().Snapshot()

	s := New(Config{
		Workers: 4,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Seed:    88,
	})

	rng := matrix.NewRNG(2027)
	const jobs = 24
	handles := make([]*JobHandle, 0, jobs)
	for i := 0; i < jobs; i++ {
		var lf map[int]ftla.LinkFaultPlan
		switch rng.Intn(5) {
		case 0: // clean control
		case 1:
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkCorrupt, AfterTransfers: rng.Intn(12), Every: 4 + rng.Intn(8),
			}}
		case 2:
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkDrop, AfterTransfers: rng.Intn(12),
			}}
		case 3:
			// Count spans both sides of the retransmission budget: short
			// flaps are absorbed, long ones exhaust and fail over.
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkFlap, Count: 1 + rng.Intn(8),
			}}
		case 4:
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkDegrade, Factor: 2 + float64(rng.Intn(6)),
			}}
		}
		h, err := s.Submit(context.Background(), linkSpec(uint64(500+i), lf))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Exhausted links retry on a clean platform, so with
				// attempts to spare every job must land a verified result.
				t.Errorf("job %d failed: %v", i, err)
				return
			}
			if res.Residual > 1e-9 {
				t.Errorf("job %d: silently wrong result, residual %g", i, res.Residual)
			}
		}(i, h)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if got := int(st.Completed + st.Failed + st.Canceled); got != jobs {
		t.Fatalf("terminal states %d != jobs %d (some job vanished)", got, jobs)
	}
	d := obs.Default().Snapshot().Diff(snap)
	if d.CounterValue(obs.MetricTransferRetransmits) == 0 {
		t.Fatal("storm issued no retransmissions: the link faults never fired")
	}
	t.Logf("link storm: retransmits=%d linkLost=%d retries=%d",
		d.CounterValue(obs.MetricTransferRetransmits), st.LinkLost, st.Retries)

	// Goroutine-leak check, same settle loop as TestChaosStorm.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
