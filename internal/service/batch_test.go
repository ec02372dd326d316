package service

import (
	"bytes"
	"context"
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

// The per-item retry-isolation pin (ISSUE 6 satellite): a DetectedCorrupt
// on one item of a coalesced dispatch must not restart or fail its sibling
// items — the corrupted item alone falls back to a solo retry, with the
// batch attempt charged to its attempt budget, while the siblings keep
// their first-pass results.
func TestBatchRetryIsolation(t *testing.T) {
	s := New(Config{
		Workers: 1, BatchMax: 8,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer s.Close()
	claimed, release := gateWorker(s)

	// The blocker occupies the worker so the three real jobs queue up.
	blocker, err := s.Submit(context.Background(), batchLUSpec(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	hA, err := s.Submit(context.Background(), batchLUSpec(11, nil))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := s.Submit(context.Background(), batchLUSpec(13, corruptingInjector(t)))
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

// A lingering worker holds the dispatch open for batchmates that arrive
// after it claimed the leader, dispatching early once BatchMax is reached.
func TestBatchLingerGathersLateArrivals(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 3, BatchLinger: time.Second})
	defer s.Close()

	spec := func(seed uint64) JobSpec {
		return JobSpec{
			Decomp:  Cholesky,
			A:       ftla.RandomSPD(64, seed),
			Config:  ftla.Config{GPUs: 1, NB: 32},
			NoCache: true,
		}
	}
	h1, err := s.Submit(context.Background(), spec(1))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the worker claim h1 and start lingering
	h2, err := s.Submit(context.Background(), spec(2))
	if err != nil {
		t.Fatal(err)
	}
	h3, err := s.Submit(context.Background(), spec(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*JobHandle{h1, h2, h3} {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
		if res.Coalesced != 3 {
			t.Fatalf("job %d coalesced = %d, want 3 (linger should gather late arrivals)", i+1, res.Coalesced)
		}
	}
}

// Jobs with per-run control flow (deadlines, traces, checkpoints,
// fail-stop plans) never coalesce: they keep the solo path and its full
// retry machinery.
func TestBatchIneligibleSpecsStaySolo(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	defer s.Close()
	claimed, release := gateWorker(s)

	solo := JobSpec{
		Decomp:  Cholesky,
		A:       ftla.RandomSPD(64, 1),
		Config:  ftla.Config{GPUs: 1, NB: 32},
		NoCache: true,
		Trace:   true, // per-job trace scope: ineligible
	}
	blocker, err := s.Submit(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	hA, err := s.Submit(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := s.Submit(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	release()
	for _, h := range []*JobHandle{blocker, hA, hB} {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Coalesced != 0 {
			t.Fatalf("traced job coalesced = %d, want solo", res.Coalesced)
		}
		if res.Trace == nil {
			t.Fatal("traced job lost its trace")
		}
	}
	if st := s.Stats(); st.BatchDispatches != 0 {
		t.Fatalf("BatchDispatches = %d, want 0", st.BatchDispatches)
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
