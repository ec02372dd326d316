package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ftla"
	"ftla/internal/blas"
	"ftla/internal/core"
	"ftla/internal/obs"
)

// corruptingInjector schedules two DRAM faults in the same column of the
// first LU panel: the dual-weight column checksum detects the mismatch but
// cannot localize two corrupted elements in one strip, and single-side
// protection has no row checksums to reconstruct from — the run is forced
// into the paper's detected-but-corrupt bucket (§X.B "Complete Restart").
func corruptingInjector(t *testing.T) *ftla.Injector {
	t.Helper()
	inj := ftla.NewInjector(99)
	for _, row := range []int{1, 2} {
		inj.Schedule(ftla.FaultSpec{
			Kind: ftla.FaultDRAM, Op: ftla.OpPD, Part: ftla.RefPart,
			Iteration: 0, Row: row, Col: 0,
		})
	}
	return inj
}

func corruptibleSpec(inj *ftla.Injector) JobSpec {
	return JobSpec{
		Decomp: LU,
		A:      ftla.RandomDiagDominant(96, 3),
		B:      make([]float64, 96),
		Config: ftla.Config{
			GPUs: 2, NB: 32,
			Protection: ftla.SingleSide, Scheme: ftla.NewScheme,
			Injector: inj,
		},
		NoCache: true,
	}
}

// The end-to-end self-healing contract: a first attempt forced into
// DetectedCorrupt is automatically restarted on a fresh injector-free
// system and completes FaultFree, with the retry visible in Stats.
func TestSelfHealingRetry(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	spec := corruptibleSpec(corruptingInjector(t))
	spec.B[0] = 1
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Outcome != core.FaultFree {
		t.Fatalf("outcome %v, want fault-free after restart", res.Outcome)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one corrupt run, one clean restart)", res.Attempts)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("winning attempt residual %g", res.Residual)
	}
	if res.X == nil {
		t.Fatal("solve leg missing")
	}
	st := s.Stats()
	if st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d, want 1/0", st.Completed, st.Failed)
	}
	if st.Outcomes["fault-free"] != 1 {
		t.Fatalf("outcome histogram %v, want one fault-free", st.Outcomes)
	}
}

// With retries exhausted the job degrades gracefully: a CorruptError that
// names the outcome and carries the last attempt's report. This also pins
// the fixture itself — the injector really produces DetectedCorrupt.
func TestPersistentCorruptionDegradesGracefully(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	defer s.Close()

	h, err := s.Submit(context.Background(), corruptibleSpec(corruptingInjector(t)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Outcome != core.DetectedCorrupt {
		t.Fatalf("outcome %v, want detected-corrupt", ce.Outcome)
	}
	if ce.Report == nil || !ce.Report.Unrecoverable {
		t.Fatalf("report missing or not unrecoverable: %+v", ce.Report)
	}
	if ce.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", ce.Attempts)
	}
	// The terminal error names the faults that fired (fault.Spec.Describe),
	// so a chaos-campaign log is diagnosable without re-running the run.
	if len(ce.Injected) != 2 {
		t.Fatalf("Injected = %v, want the two scheduled DRAM faults", ce.Injected)
	}
	for _, d := range ce.Injected {
		if !strings.Contains(d, "off-chip-mem@PD/ref") {
			t.Fatalf("injected description %q missing kind@op/part", d)
		}
		if !strings.Contains(ce.Error(), d) {
			t.Fatalf("Error() %q does not carry injected description %q", ce.Error(), d)
		}
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("Stats.Failed = %d, want 1", st.Failed)
	}
}

// The factor-once/solve-many fast path: a second job against the same
// operator is served from the cache without rerunning the decomposition,
// verified by the global BLAS op counter staying flat.
func TestCacheHitSkipsRefactorization(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	n := 64
	a := ftla.RandomSPD(n, 9)
	cfg := ftla.Config{GPUs: 1, NB: 16}
	h1, err := s.Submit(context.Background(), JobSpec{Decomp: Cholesky, A: a, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	flops0 := blas.Flops()
	h2, err := s.Submit(context.Background(), JobSpec{Decomp: Cholesky, A: a, B: b, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Attempts != 0 {
		t.Fatalf("CacheHit=%v Attempts=%d, want hit with zero factorization attempts", res.CacheHit, res.Attempts)
	}
	factorFlops := uint64(n) * uint64(n) * uint64(n) / 3
	if d := blas.Flops() - flops0; d > factorFlops/10 {
		t.Fatalf("cache-hit job burned %d flops (> %d): it refactorized", d, factorFlops/10)
	}
	// The served solution must still solve the original system.
	r := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r[i] -= a.At(i, j) * res.X[j]
		}
	}
	for i, v := range r {
		if v > 1e-8 || v < -1e-8 {
			t.Fatalf("cached solve residual %g at %d", v, i)
		}
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// Admission control: once QueueDepth jobs are waiting, Submit rejects with
// ErrQueueFull instead of growing the queue.
func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	claimed := make(chan struct{})
	var once sync.Once
	s.beforeRun = func(*JobHandle) {
		once.Do(func() { close(claimed) })
		<-gate
	}

	spec := JobSpec{Decomp: Cholesky, A: ftla.RandomSPD(32, 1), Config: ftla.Config{NB: 16}}
	h1, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-claimed // the lone worker holds h1; the queue is now empty
	h2, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.QueueDepth != 1 {
		t.Fatalf("Rejected=%d QueueDepth=%d, want 1/1", st.Rejected, st.QueueDepth)
	}
	close(gate)
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(context.Background(), spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close err = %v, want ErrClosed", err)
	}
}

// Interactive jobs overtake queued batch jobs.
func TestPriorityDispatchOrder(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	gate := make(chan struct{})
	claimed := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	first := true
	s.beforeRun = func(h *JobHandle) {
		mu.Lock()
		order = append(order, h.ID)
		wasFirst := first
		first = false
		mu.Unlock()
		if wasFirst {
			close(claimed)
			<-gate
		}
	}

	spec := func(p Priority) JobSpec {
		return JobSpec{Decomp: Cholesky, A: ftla.RandomSPD(32, 2), Config: ftla.Config{NB: 16}, Priority: p, NoCache: true}
	}
	h0, err := s.Submit(context.Background(), spec(Batch))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	hBatch, err := s.Submit(context.Background(), spec(Batch))
	if err != nil {
		t.Fatal(err)
	}
	hInter, err := s.Submit(context.Background(), spec(Interactive))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, h := range []*JobHandle{h0, hBatch, hInter} {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != hInter.ID || order[2] != hBatch.ID {
		t.Fatalf("dispatch order %v, want interactive %d before batch %d", order, hInter.ID, hBatch.ID)
	}
}

// A job whose context is already dead is not run.
func TestCanceledContext(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := s.Submit(ctx, JobSpec{Decomp: Cholesky, A: ftla.RandomSPD(32, 4), Config: ftla.Config{NB: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", st.Canceled)
	}
}

// Sequential same-platform jobs reuse one pooled system, and the released
// systems' device utilization aggregates into Stats.
func TestSystemPoolReuseAndUtilization(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for seed := uint64(0); seed < 3; seed++ {
		h, err := s.Submit(context.Background(), JobSpec{
			Decomp: Cholesky, A: ftla.RandomSPD(64, 10+seed),
			Config: ftla.Config{GPUs: 2, NB: 16}, NoCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SystemsCreated != 1 || st.SystemsReused != 2 {
		t.Fatalf("pool created/reused = %d/%d, want 1/2", st.SystemsCreated, st.SystemsReused)
	}
	if len(st.Devices) == 0 {
		t.Fatal("no aggregated device utilization")
	}
	var busy float64
	for _, d := range st.Devices {
		busy += d.SimSecs
	}
	if busy <= 0 {
		t.Fatalf("aggregated device time %g, want > 0", busy)
	}
}

// Released systems publish overlap utilization (busy over logical
// makespan): Stats.Devices carries Util and the scheduler registry gauges
// it as ftla_device_utilization, including for look-ahead jobs.
func TestDeviceUtilizationPublished(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, la := range []int{0, 1} {
		h, err := s.Submit(context.Background(), JobSpec{
			Decomp: Cholesky, A: ftla.RandomSPD(64, 21),
			Config: ftla.Config{GPUs: 2, NB: 16, Lookahead: la}, NoCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Devices) == 0 {
		t.Fatal("no aggregated device utilization")
	}
	var sum float64
	for _, d := range st.Devices {
		if d.Util < 0 || d.Util > 1.001 {
			t.Fatalf("device %s utilization %g outside [0, 1]", d.Name, d.Util)
		}
		sum += d.Util
	}
	if sum <= 0 {
		t.Fatal("all device utilizations zero")
	}
	snap := s.Registry().Snapshot()
	found := false
	for key, v := range snap.FloatGauges {
		if strings.HasPrefix(key, MetricDeviceUtilization+"{") {
			found = true
			if v < 0 || v > 1.001 {
				t.Fatalf("gauge %s = %g outside [0, 1]", key, v)
			}
		}
	}
	if !found {
		t.Fatalf("no %s series in the scheduler registry", MetricDeviceUtilization)
	}
}

// Invalid specs are rejected at Submit, not at run time.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []JobSpec{
		{},
		{Decomp: Cholesky, A: ftla.Random(4, 6, 1)},
		{Decomp: Decomp(9), A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16}},
		{Decomp: LU, A: ftla.RandomSPD(16, 1), B: make([]float64, 3), Config: ftla.Config{NB: 16}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1)}, // order 16, default NB 64
		// The configuration's own rules (ftla.Config.Validate): each of these
		// used to be admitted and then failed by a worker.
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, Protection: ftla.NoProtection}}, // scheme without checksums
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, CheckpointEvery: -1}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, OnCheckpoint: func(*ftla.Checkpoint) {}}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, GPUs: 2, RebalanceEvery: -1}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, GPUs: 3, Nodes: 2}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, GPUs: 2, Nodes: 2, Redundancy: 2}},
		{Decomp: Cholesky, A: ftla.RandomSPD(16, 1), Config: ftla.Config{NB: 16, GPUs: 2, Nodes: 2, Redundancy: -1}},
	}
	for i, spec := range cases {
		if _, err := s.Submit(context.Background(), spec); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

// A job whose order is not a multiple of its effective NB can never run,
// so Submit rejects it: no coalesced batch attempt and no solo retry is
// spent on an error that no retry can fix.
func TestSubmitRejectsOrderNotMultipleOfNB(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	defer s.Close()
	for i := 0; i < 3; i++ {
		spec := JobSpec{
			Decomp:  Cholesky,
			A:       ftla.RandomSPD(100, uint64(i+1)),
			Config:  ftla.Config{NB: 32},
			NoCache: true,
		}
		if h, err := s.Submit(context.Background(), spec); err == nil {
			res, err := h.Wait(context.Background())
			t.Fatalf("job %d: order 100 with NB=32 accepted (result %v, error %v)", i, res, err)
		}
	}
	if st := s.Stats(); st.Submitted != 0 || st.Retries != 0 || st.Restarts != 0 {
		t.Fatalf("Submitted/Retries/Restarts = %d/%d/%d, want 0/0/0", st.Submitted, st.Retries, st.Restarts)
	}
}

// Concurrent mixed traffic drains cleanly under -race: many goroutines
// submitting all three decompositions at mixed priorities, with cache hits
// and pool reuse in play.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 128})
	mats := []*ftla.Matrix{ftla.RandomSPD(48, 1), ftla.RandomSPD(48, 2)}
	gen := []*ftla.Matrix{ftla.RandomDiagDominant(48, 3), ftla.Random(48, 48, 4)}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{Priority: Priority(i % int(numPriorities)), Config: ftla.Config{NB: 16}}
			switch i % 3 {
			case 0:
				spec.Decomp, spec.A = Cholesky, mats[i%2]
			case 1:
				spec.Decomp, spec.A = LU, gen[0]
			default:
				spec.Decomp, spec.A = QR, gen[1]
			}
			h, err := s.Submit(context.Background(), spec)
			if err != nil {
				errs <- err
				return
			}
			if _, err := h.Wait(context.Background()); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	// The concurrent wave alone cannot guarantee a cache hit: under -race
	// the workers run slowly enough that every duplicate may still be
	// queued when its twin completes, and queued duplicates coalesce into
	// batched dispatches instead of hitting the cache. One more duplicate
	// after the wave drains is deterministic — its result is cached.
	h, err := s.Submit(context.Background(), JobSpec{Decomp: Cholesky, A: mats[0], Config: ftla.Config{NB: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 25 {
		t.Fatalf("completed %d/25 (stats %+v)", st.Completed, st)
	}
	if st.CacheHits == 0 {
		t.Fatal("repeated operators produced no cache hits")
	}
}

// A sanity check that the injector fixture corrupts through the raw fault
// package too (guards against the fixture silently rotting if fault
// scheduling semantics change).
func TestCorruptingInjectorFires(t *testing.T) {
	inj := corruptingInjector(t)
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	defer s.Close()
	h, err := s.Submit(context.Background(), corruptibleSpec(inj))
	if err != nil {
		t.Fatal(err)
	}
	h.Wait(context.Background())
	if got := len(inj.Events()); got != 2 {
		t.Fatalf("injector fired %d faults, want 2: %v", got, inj.Events())
	}
}

// The observability contract: a traced job carries a Chrome-exportable
// trace with spans from both clocks, and the scheduler's registry reflects
// the same run under the documented metric names.
func TestJobTraceAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg})
	defer s.Close()
	if s.Registry() != reg {
		t.Fatal("Registry must return the configured registry")
	}
	spec := JobSpec{
		Decomp: Cholesky, A: ftla.RandomSPD(64, 11),
		Config: ftla.Config{NB: 32, Protection: ftla.FullChecksum, Scheme: ftla.NewScheme},
		Trace:  true, NoCache: true,
	}
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("traced job must carry a non-empty trace")
	}
	var wall, sim bool
	for _, sp := range res.Trace.Spans() {
		switch sp.Proc {
		case obs.ProcWall:
			wall = true
		case obs.ProcSim:
			sim = true
		}
	}
	if !wall || !sim {
		t.Fatalf("trace must span both clocks: wall=%v sim=%v", wall, sim)
	}
	var b bytes.Buffer
	if err := res.Trace.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricJobsCompleted); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsCompleted, got)
	}
	okey := obs.Key(MetricJobOutcomes, "outcome", "fault-free")
	if got := snap.CounterValue(okey); got != 1 {
		t.Fatalf("%s = %d, want 1 (counters: %v)", okey, got, snap.Counters)
	}
	if hs := snap.Histograms[MetricJobRunSeconds]; hs.Count != 1 || hs.Sum <= 0 {
		t.Fatalf("run-seconds histogram: %+v", hs)
	}
	// An untraced job must not pay for tracing.
	h2, err := s.Submit(context.Background(), JobSpec{
		Decomp: Cholesky, A: ftla.RandomSPD(64, 12),
		Config: ftla.Config{NB: 32}, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Fatal("untraced job must carry no trace")
	}
}

// Two schedulers with default (nil) Registry configs must not share
// counters — the per-scheduler isolation that keeps concurrent tests from
// contaminating each other.
func TestSchedulerRegistriesIsolated(t *testing.T) {
	s1 := New(Config{Workers: 1})
	defer s1.Close()
	s2 := New(Config{Workers: 1})
	defer s2.Close()
	if s1.Registry() == s2.Registry() {
		t.Fatal("default registries must be private per scheduler")
	}
	h, err := s1.Submit(context.Background(), JobSpec{
		Decomp: Cholesky, A: ftla.RandomSPD(32, 5), Config: ftla.Config{NB: 16}, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s1.Stats().Completed; got != 1 {
		t.Fatalf("s1 completed = %d, want 1", got)
	}
	if got := s2.Stats().Completed; got != 0 {
		t.Fatalf("s2 completed = %d, want 0", got)
	}
}
