package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ftla"
	"ftla/internal/core"
	"ftla/internal/obs"
)

// batchLUSpec is one small LU job of the shared coalescing key the batch
// tests use (the corruptible single-side configuration from the retry
// fixtures); each seed gives a distinct input.
func batchLUSpec(seed uint64, inj *ftla.Injector) JobSpec {
	b := make([]float64, 96)
	b[0] = 1
	return JobSpec{
		Decomp: LU,
		A:      ftla.RandomDiagDominant(96, seed),
		B:      b,
		Config: ftla.Config{
			GPUs: 2, NB: 32,
			Protection: ftla.SingleSide, Scheme: ftla.NewScheme,
			Injector: inj,
		},
		NoCache: true,
	}
}

// gateWorker parks the scheduler's lone worker on its first claimed job
// until the returned release func is called, so jobs submitted in the
// meantime pile up in the queue and coalesce into one dispatch.
func gateWorker(s *Scheduler) (claimed <-chan struct{}, release func()) {
	gate := make(chan struct{})
	c := make(chan struct{})
	var once sync.Once
	s.beforeRun = func(*JobHandle) {
		once.Do(func() { close(c) })
		<-gate
	}
	return c, func() { close(gate) }
}

// coalesce queues specs behind a blocker job (a clean batchLUSpec) that
// holds the scheduler's lone worker at the gate, so the specs coalesce
// into the one dispatch the worker claims next, and returns the handles.
func coalesce(t *testing.T, s *Scheduler, specs ...JobSpec) (blocker *JobHandle, hs []*JobHandle) {
	t.Helper()
	claimed, release := gateWorker(s)
	defer release()
	blocker, err := s.Submit(context.Background(), batchLUSpec(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	for _, spec := range specs {
		h, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return blocker, hs
}

// The per-item retry-isolation pin: a DetectedCorrupt on one item of a
// coalesced dispatch must not restart or fail its sibling items — the
// corrupted item alone retries, with the batch attempt charged to its
// attempt budget, while the siblings keep their first-pass results.
func TestBatchRetryIsolation(t *testing.T) {
	s := New(Config{
		Workers: 1, BatchMax: 8,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer s.Close()
	blocker, hs := coalesce(t, s, batchLUSpec(11, nil), batchLUSpec(13, corruptingInjector(t)), batchLUSpec(17, nil))
	hA, hB, hC := hs[0], hs[1], hs[2]
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	for _, tc := range []struct {
		name     string
		h        *JobHandle
		attempts int
	}{
		{"clean sibling A", hA, 1},
		{"injected item B", hB, 2},
		{"clean sibling C", hC, 1},
	} {
		res, err := tc.h.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s failed: %v", tc.name, err)
		}
		if res.Outcome != core.FaultFree {
			t.Fatalf("%s outcome = %v, want fault-free", tc.name, res.Outcome)
		}
		if res.Attempts != tc.attempts {
			t.Fatalf("%s attempts = %d, want %d", tc.name, res.Attempts, tc.attempts)
		}
		if res.Coalesced != 3 {
			t.Fatalf("%s coalesced = %d, want 3", tc.name, res.Coalesced)
		}
		if res.X == nil {
			t.Fatalf("%s solve leg missing", tc.name)
		}
	}

	st := s.Stats()
	if st.Completed != 4 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d, want 4/0", st.Completed, st.Failed)
	}
	if st.Retries != 1 || st.Restarts != 1 || st.Resumed != 0 {
		t.Fatalf("Retries/Restarts/Resumed = %d/%d/%d, want 1/1/0 (only the injected item retried)",
			st.Retries, st.Restarts, st.Resumed)
	}
	if st.BatchDispatches != 1 || st.JobsCoalesced != 3 {
		t.Fatalf("BatchDispatches/JobsCoalesced = %d/%d, want 1/3",
			st.BatchDispatches, st.JobsCoalesced)
	}
}

// A coalesced dispatch's first attempt counts against every job's attempt
// budget: with MaxAttempts 2 and every attempt timing out, each of three
// coalesced jobs runs the shared attempt and one retry of its own, so the
// dispatch takes 4 pooled systems and grants 3 retries (the blocker, alone
// in its dispatch, takes 2 and 1).
func TestBatchRetryBudget(t *testing.T) {
	s := New(Config{
		Workers: 1, BatchMax: 8, AttemptTimeout: time.Nanosecond,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	defer s.Close()
	blocker, hs := coalesce(t, s, batchLUSpec(11, nil), batchLUSpec(13, nil), batchLUSpec(17, nil))
	for i, h := range append([]*JobHandle{blocker}, hs...) {
		_, err := h.Wait(context.Background())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("job %d ended in %v, want the attempt timeout", i, err)
		}
	}
	st := s.Stats()
	if got := st.SystemsCreated + st.SystemsReused; got != 2+4 {
		t.Fatalf("pooled systems taken = %d, want 2 (blocker) + 4 (dispatch)", got)
	}
	if st.Retries != 1+3 || st.Restarts != 1+3 {
		t.Fatalf("Retries/Restarts = %d/%d, want 1+3 each (one retry per job)", st.Retries, st.Restarts)
	}
	if st.Failed != 4 || st.BatchDispatches != 1 {
		t.Fatalf("Failed/BatchDispatches = %d/%d, want 4/1", st.Failed, st.BatchDispatches)
	}
}

// A coalesced dispatch bills its time the same way to every job: each
// ends its Wait at the one dispatch instant, a retried job's Run covers its
// batched first attempt, its backoff and its retry, and its clean
// batchmates settle with the first pass, while it is still backing off.
func TestBatchRetryTiming(t *testing.T) {
	s := New(Config{
		Workers: 1, BatchMax: 8,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second},
	})
	defer s.Close()
	blocker, hs := coalesce(t, s, batchLUSpec(11, nil), batchLUSpec(13, corruptingInjector(t)), batchLUSpec(17, nil))
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	ress := make([]*JobResult, len(hs))
	for _, i := range []int{0, 2} {
		res, err := hs[i].Wait(context.Background())
		if err != nil {
			t.Fatalf("clean item %d failed: %v", i, err)
		}
		ress[i] = res
	}
	if _, _, done := hs[1].Poll(); done {
		t.Fatal("injected item settled before its batchmates did: its retry ran before the first pass settled")
	}
	res, err := hs[1].Wait(context.Background())
	if err != nil {
		t.Fatalf("injected item failed: %v", err)
	}
	ress[1] = res
	dispatched := hs[0].enqueued.Add(ress[0].Wait)
	for i, h := range hs {
		if at := h.enqueued.Add(ress[i].Wait); !at.Equal(dispatched) {
			t.Fatalf("item %d Wait ends at %v, item 0's at %v: want the one dispatch instant", i, at, dispatched)
		}
	}
	// The first retry's backoff is at least half of BaseBackoff.
	if ress[1].Attempts != 2 || ress[1].Run < s.cfg.Retry.BaseBackoff/2 {
		t.Fatalf("injected item Attempts/Run = %d/%v, want 2 attempts and a Run spanning the backoff", ress[1].Attempts, ress[1].Run)
	}
	for _, i := range []int{0, 2} {
		if ress[i].Run >= ress[1].Run-s.cfg.Retry.BaseBackoff/2 {
			t.Fatalf("clean item %d Run %v does not end before the injected item's backoff (Run %v)", i, ress[i].Run, ress[1].Run)
		}
	}
}

// Partial cache service: a coalesced dispatch serves cached items per item
// and runs the batched factorization only for the rest; fresh results fill
// the cache for later traffic.
func TestBatchPartialCache(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	defer s.Close()

	spec := func(seed uint64) JobSpec {
		return JobSpec{
			Decomp: Cholesky,
			A:      ftla.RandomSPD(64, seed),
			Config: ftla.Config{GPUs: 1, NB: 32},
		}
	}
	// Warm the cache with seed 1 on the ordinary path.
	h, err := s.Submit(context.Background(), spec(1))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.Wait(context.Background()); err != nil || res.CacheHit {
		t.Fatalf("warmup: res=%+v err=%v", res, err)
	}

	claimed, release := gateWorker(s)
	blocker, err := s.Submit(context.Background(), spec(99))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	hot, err := s.Submit(context.Background(), spec(1)) // cached
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := s.Submit(context.Background(), spec(2))
	if err != nil {
		t.Fatal(err)
	}
	cold3, err := s.Submit(context.Background(), spec(3))
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	res, err := hot.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Attempts != 0 || res.Coalesced != 3 {
		t.Fatalf("cached item: CacheHit=%v Attempts=%d Coalesced=%d, want true/0/3",
			res.CacheHit, res.Attempts, res.Coalesced)
	}
	for i, ch := range []*JobHandle{cold2, cold3} {
		res, err := ch.Wait(context.Background())
		if err != nil {
			t.Fatalf("cold item %d: %v", i, err)
		}
		if res.CacheHit || res.Attempts != 1 || res.Coalesced != 3 {
			t.Fatalf("cold item %d: CacheHit=%v Attempts=%d Coalesced=%d, want false/1/3",
				i, res.CacheHit, res.Attempts, res.Coalesced)
		}
	}
	// The batch filled the cache: seed 2 now serves without a run.
	h2, err := s.Submit(context.Background(), spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h2.Wait(context.Background()); err != nil || !res.CacheHit {
		t.Fatalf("post-batch lookup: CacheHit=%v err=%v, want a pure cache hit", res.CacheHit, err)
	}

	st := s.Stats()
	if st.BatchDispatches != 1 || st.JobsCoalesced != 3 {
		t.Fatalf("BatchDispatches/JobsCoalesced = %d/%d, want 1/3", st.BatchDispatches, st.JobsCoalesced)
	}
	if st.JobsPerSec <= 0 {
		t.Fatalf("JobsPerSec = %g, want > 0", st.JobsPerSec)
	}
	// The batch metrics are registered series, visible to /metrics scrapes.
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricBatchSize, MetricBatchJobsCoalesced, MetricBatchDispatches} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("scrape missing %s", name)
		}
	}
}

// A dispatch takes the leader and its queued same-key batchmates up to
// BatchMax, and jobs with per-run control flow (deadlines, traces,
// checkpoints, fail-stop plans) never coalesce: they are dispatched
// alone. Each input queues its jobs behind a
// gated blocker, which is claimed alone, and checks the dispatch size
// each job reports.
func TestBatchDispatchSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		batchMax   int
		trace      bool  // per-job trace scope: ineligible
		coalesced  []int // per queued job, in submission order
		dispatches uint64
	}{
		{"traced jobs stay solo", 8, true, []int{0, 0}, 0},
		{"BatchMax caps a dispatch", 3, false, []int{3, 3, 3, 2, 2}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, BatchMax: tc.batchMax})
			defer s.Close()
			claimed, release := gateWorker(s)
			spec := func(seed uint64) JobSpec {
				return JobSpec{
					Decomp:  Cholesky,
					A:       ftla.RandomSPD(64, seed),
					Config:  ftla.Config{GPUs: 1, NB: 32},
					NoCache: true,
					Trace:   tc.trace,
				}
			}
			blocker, err := s.Submit(context.Background(), spec(1))
			if err != nil {
				t.Fatal(err)
			}
			<-claimed
			hs := make([]*JobHandle, len(tc.coalesced))
			for i := range hs {
				if hs[i], err = s.Submit(context.Background(), spec(uint64(i+2))); err != nil {
					t.Fatal(err)
				}
			}
			release()
			for i, h := range append([]*JobHandle{blocker}, hs...) {
				res, err := h.Wait(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want := 0 // the blocker runs solo
				if i > 0 {
					want = tc.coalesced[i-1]
				}
				if res.Coalesced != want {
					t.Fatalf("job %d coalesced = %d, want %d", i, res.Coalesced, want)
				}
				if tc.trace && res.Trace == nil {
					t.Fatalf("job %d lost its trace", i)
				}
			}
			if st := s.Stats(); st.BatchDispatches != tc.dispatches {
				t.Fatalf("BatchDispatches = %d, want %d", st.BatchDispatches, tc.dispatches)
			}
		})
	}
}

// A link-fault plan is per-run control flow too: a batched dispatch arms
// the shared configuration's plans once for the whole batch, so a follower's
// plan would never fire and its batchmates would run under the leader's.
// The link-fault job must run solo, with its own plan firing, while its
// same-key clean neighbours still coalesce.
func TestBatchLinkFaultJobsStaySolo(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	defer s.Close()
	claimed, release := gateWorker(s)

	blocker, err := s.Submit(context.Background(), batchLUSpec(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	before := obs.Default().Snapshot()
	hA, err := s.Submit(context.Background(), batchLUSpec(11, nil))
	if err != nil {
		t.Fatal(err)
	}
	linked := batchLUSpec(13, nil)
	linked.Config.LinkFault = map[int]ftla.LinkFaultPlan{1: {Mode: ftla.LinkCorrupt, AfterTransfers: 2}}
	hL, err := s.Submit(context.Background(), linked)
	if err != nil {
		t.Fatal(err)
	}
	hC, err := s.Submit(context.Background(), batchLUSpec(17, nil))
	if err != nil {
		t.Fatal(err)
	}
	release()

	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	for _, tc := range []struct {
		name      string
		h         *JobHandle
		coalesced int
	}{
		{"clean A", hA, 2},
		{"link-fault job", hL, 0},
		{"clean C", hC, 2},
	} {
		res, err := tc.h.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s failed: %v", tc.name, err)
		}
		if res.Coalesced != tc.coalesced {
			t.Fatalf("%s coalesced = %d, want %d", tc.name, res.Coalesced, tc.coalesced)
		}
		if res.Attempts != 1 || res.Outcome != core.FaultFree {
			t.Fatalf("%s attempts/outcome = %d/%v, want 1/fault-free", tc.name, res.Attempts, res.Outcome)
		}
	}
	d := obs.Default().Snapshot().Diff(before)
	if d.CounterValue(obs.MetricTransferRetransmits) == 0 {
		t.Fatal("no retransmissions recorded: the link-fault job's plan never fired")
	}
}
