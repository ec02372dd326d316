// Package service is the serving layer over the ftla decompositions: a
// concurrent job scheduler that multiplexes factorization/solve requests
// onto a bounded worker pool running on reusable simulated systems, with
// production semantics the library itself does not provide —
//
//   - admission control: a bounded queue with three priority classes;
//     submissions beyond capacity fail fast with ErrQueueFull
//     (backpressure) instead of growing without bound,
//   - per-job deadlines (JobSpec.Deadline → typed *DeadlineError),
//     per-attempt timeouts (Config.AttemptTimeout), and cancellation via
//     context.Context — all bound into the running system, so they abort
//     kernels mid-factorization rather than after,
//   - graceful degradation under fail-stop faults: an attempt aborted by
//     a device crash or hang releases its system to the pool (whose Reset
//     repairs it), degrades the platform to the surviving GPU count, and
//     retries; persistent loss terminates with a typed *FailStopError. An
//     attempt aborted by a PCIe link fault that exhausted the
//     reliable-transfer protocol's retransmissions (*hetsim.LinkError) is
//     classified the same way — the platform degrades around the link's
//     GPU,
//   - a retry policy acting on the paper's outcome taxonomy (§X.B): runs
//     whose ABFT layer repaired everything online (fault-free, corrected,
//     locally restarted) succeed with the recovery recorded in the report;
//     runs in the complete-restart bucket (detected-but-corrupt, or a
//     silent corruption caught by the service's own residual check) are
//     automatically rerun on a fresh injector-free system with capped
//     exponential backoff; persistent corruption degrades gracefully to a
//     CorruptError carrying the last report,
//   - checkpoint-based resume: when the job enables mid-run checkpoints
//     (ftla.Config.CheckpointEvery), retries prefer replaying from the
//     job's last known-clean snapshot over restarting from scratch — a
//     device-loss abort at step k resumes from the checkpoint on the
//     surviving GPUs; only jobs without a usable checkpoint (none taken,
//     silently corrupt result, or a failed resume) pay the full rerun
//     (see RetryPolicy),
//   - a factorization cache (LRU over matrix fingerprints) serving the
//     factor-once/solve-many pattern without refactorization,
//   - aggregate statistics: outcome histogram, retry/cache/pool counters,
//     queue and latency gauges, and fleet-wide device utilization.
package service

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ftla"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// Config sizes a Scheduler. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of concurrent jobs (default GOMAXPROCS/2,
	// minimum 1 — each job already fans out across simulated devices).
	Workers int
	// QueueDepth bounds admitted-but-undispatched jobs (default 64);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the factorization cache (default 64 entries).
	CacheEntries int
	// Retry is the corruption retry policy (zero value: DefaultRetryPolicy).
	Retry RetryPolicy
	// AttemptTimeout bounds each factorization attempt's wall-clock time.
	// The per-attempt context is bound into the running system, so a hung
	// or runaway attempt is aborted at its next kernel gate and the job
	// retries (attempts permitting) instead of wedging a worker forever.
	// Zero means attempts are bounded only by the job's Deadline/context.
	AttemptTimeout time.Duration
	// BatchMax caps how many queued jobs one coalesced batched dispatch may
	// carry (default 16). 1 disables coalescing: every job takes the solo
	// path. Only jobs whose specs agree on every run-shaping parameter
	// (decomposition, shape, protection, scheme, schedule, platform) are
	// coalesced, and only specs without per-run control flow (fail-stop
	// plans, checkpointing, deadlines, traces) are eligible.
	BatchMax int
	// Seed seeds the scheduler's internal randomness — currently the
	// backoff jitter (RetryPolicy.Backoff) — making retry timing
	// reproducible in tests. Zero selects a fixed default seed; schedulers
	// are deterministic either way, just differently jittered.
	Seed uint64
	// Registry receives the scheduler's metrics (job counters, the outcome
	// series, queue gauges, latency histograms; see the Metric* constants).
	// nil selects a fresh private registry, so concurrent schedulers (one
	// per test, say) never share counters. Library-level instrumentation
	// (flops, phase attribution, PCIe traffic) always lands in obs.Default,
	// which is process-wide by design.
	Registry *obs.Registry
}

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	c.Retry = c.Retry.normalize()
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Scheduler runs factorization jobs on a bounded worker pool.
type Scheduler struct {
	cfg   Config
	pool  *systemPool
	cache *factorCache
	met   *metrics

	rngMu sync.Mutex
	rng   *matrix.RNG // backoff jitter source, seeded by Config.Seed

	// start anchors the Stats.JobsPerSec throughput rate.
	start time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	queues  [numPriorities][]*JobHandle
	queued  int
	running int
	closed  bool
	nextID  uint64
	wg      sync.WaitGroup

	// beforeRun, when set (tests only), runs on the worker after a job is
	// claimed and before it executes — a seam for making dispatch timing
	// deterministic.
	beforeRun func(h *JobHandle)
}

// New starts a scheduler with cfg.Workers workers. The caller must Close it.
func New(cfg Config) *Scheduler {
	cfg = cfg.normalize()
	met := newMetrics(cfg.Registry)
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5eed0f5e12e5 // fixed default: deterministic jitter
	}
	s := &Scheduler{
		cfg:   cfg,
		pool:  newSystemPool(met),
		cache: newFactorCache(cfg.CacheEntries, met),
		met:   met,
		rng:   matrix.NewRNG(seed),
		start: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit admits a job. It never blocks: a full queue rejects immediately
// with ErrQueueFull, the backpressure contract. ctx covers the job's whole
// lifetime — a job whose context expires while queued or between retry
// attempts finishes with the context's error. A nil ctx means Background.
func (s *Scheduler) Submit(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pri := spec.Priority
	if pri >= numPriorities {
		pri = numPriorities - 1
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.nextID++
	h := &JobHandle{
		ID:       s.nextID,
		spec:     spec,
		ctx:      ctx,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.queues[pri] = append(s.queues[pri], h)
	s.queued++
	s.met.queueDepth.Set(int64(s.queued))
	s.cond.Signal()
	s.mu.Unlock()
	s.met.submitted.Inc()
	return h, nil
}

// Close stops admission, drains every queued job, waits for running jobs to
// finish, and returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats snapshots the scheduler's aggregate counters and gauges.
func (s *Scheduler) Stats() Stats {
	st := s.met.snapshot()
	st.Devices = s.pool.utilization()
	if up := time.Since(s.start).Seconds(); up > 0 {
		st.JobsPerSec = float64(st.Completed) / up
	}
	s.mu.Lock()
	st.QueueDepth = s.queued
	st.Running = s.running
	s.mu.Unlock()
	return st
}

// Registry returns the registry holding the scheduler's metrics — the one
// from Config.Registry, or the private registry normalize minted. Servers
// expose it next to obs.Default for scraping.
func (s *Scheduler) Registry() *obs.Registry { return s.cfg.Registry }

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queued == 0 {
			s.mu.Unlock()
			return
		}
		var h *JobHandle
		for pri := numPriorities - 1; pri >= 0; pri-- {
			if q := s.queues[pri]; len(q) > 0 {
				h = q[0]
				s.queues[pri] = q[1:]
				break
			}
		}
		s.queued--
		s.running++
		// Coalesce: sweep every queue (all priorities) for jobs that may
		// share the leader's batched dispatch.
		hs := []*JobHandle{h}
		if s.cfg.BatchMax > 1 && h.spec.batchable() {
			hs = append(hs, s.gatherLocked(h.spec.batchKey(), s.cfg.BatchMax-1)...)
		}
		s.met.queueDepth.Set(int64(s.queued))
		s.met.running.Set(int64(s.running))
		s.mu.Unlock()
		if s.beforeRun != nil {
			for _, bh := range hs {
				s.beforeRun(bh)
			}
		}
		if len(hs) == 1 {
			s.run(h)
		} else {
			s.runBatch(hs)
		}
		s.mu.Lock()
		s.running -= len(hs)
		s.met.running.Set(int64(s.running))
		s.mu.Unlock()
	}
}

// gatherLocked removes up to max queued jobs whose specs match the batch
// key — scanning highest priority first, submission order within each class
// — and marks them running. The caller holds s.mu.
func (s *Scheduler) gatherLocked(key coalesceKey, max int) []*JobHandle {
	var out []*JobHandle
	for pri := numPriorities - 1; pri >= 0 && len(out) < max; pri-- {
		q := s.queues[pri]
		kept := q[:0]
		for _, h := range q {
			if len(out) < max && h.spec.batchable() && h.spec.batchKey() == key {
				out = append(out, h)
				s.queued--
				s.running++
				continue
			}
			kept = append(kept, h)
		}
		s.queues[pri] = kept
	}
	return out
}

// jitter draws one uniform variate in [0, 1) from the scheduler's seeded
// source — the RetryPolicy.Backoff jitter input.
func (s *Scheduler) jitter() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// run drives one job to a terminal state: cache fast path, then the
// attempt/retry loop of the RetryPolicy, classifying each attempt's
// failure — corruption (complete restart), fail-stop device fault
// (retry on a degraded platform), context expiry
// (cancellation or a typed DeadlineError), or a deterministic construction
// error (fail fast).
func (s *Scheduler) run(h *JobHandle) {
	spec := h.spec
	wait := time.Since(h.enqueued)
	start := time.Now()

	var tr *obs.Trace
	if spec.Trace {
		tr = obs.NewTrace()
	}

	// jctx is the job's service-time budget: the submission context,
	// tightened by JobSpec.Deadline measured from dispatch.
	jctx := h.ctx
	if spec.Deadline > 0 {
		var jcancel context.CancelFunc
		jctx, jcancel = context.WithTimeout(h.ctx, spec.Deadline)
		defer jcancel()
	}

	fail := func(err error) {
		s.met.failed.Inc()
		h.finish(nil, err)
	}
	cancel := func(err error) {
		s.met.canceled.Inc()
		h.finish(nil, err)
	}
	deadline := func(attempts int, cause error) {
		s.met.deadlineExceeded.Inc()
		s.met.failed.Inc()
		h.finish(nil, &DeadlineError{Deadline: spec.Deadline, Attempts: h.prior + attempts, Cause: cause})
	}
	// expire routes a job-budget expiry to the right terminal state: the
	// caller's context going first means cancellation; otherwise the
	// spec's Deadline ran out.
	expire := func(attempts int, cause error) {
		if err := h.ctx.Err(); err != nil {
			cancel(err)
			return
		}
		deadline(attempts, cause)
	}
	// resumedAttempts counts this job's attempts that replayed from a
	// checkpoint instead of restarting (JobResult.Resumed).
	resumedAttempts := 0
	// injected snapshots the fault descriptions the job's injector fired,
	// for diagnosable CorruptError messages.
	injected := func() []string {
		if spec.Config.Injector == nil {
			return nil
		}
		events := spec.Config.Injector.Events()
		out := make([]string, 0, len(events))
		for _, ev := range events {
			out = append(out, ev.Spec.Describe())
		}
		return out
	}

	if err := jctx.Err(); err != nil {
		expire(0, nil)
		return
	}

	var key fingerprint
	if !spec.NoCache {
		key = fingerprintOf(spec.Decomp, spec.A)
		if f, ok := s.cache.get(key); ok {
			s.settle(h, &JobResult{Factors: f, Attempts: h.prior, CacheHit: true, Wait: wait, Trace: tr}, start)
			return
		}
	}

	// sysCfg is the platform the job runs on. A GPU loss degrades it in
	// place — the retry reruns on a rebuilt system with the surviving GPU
	// count, so a job that lost GPU 3 of 4 completes on a 3-GPU platform.
	sysCfg := spec.Config.SystemConfig()
	// resumeCP is the job's latest known-clean checkpoint, captured
	// synchronously on this goroutine as the running attempt takes
	// snapshots. Checkpoints are host-side state: they survive the
	// release and Reset of the system that produced them, which is what
	// lets a device-loss abort resume on the degraded platform.
	var resumeCP *ftla.Checkpoint
	for attempt := 1; ; attempt++ {
		if jctx.Err() != nil {
			expire(attempt-1, nil)
			return
		}
		cfg := spec.Config
		wasResume := false
		if attempt > 1 {
			// Retry: fresh pooled (Reset) system, no injector, no armed
			// fault plans — the transient that corrupted or killed the
			// previous attempt is gone; only the (possibly degraded)
			// platform shape carries over. With a usable checkpoint the
			// retry resumes from it; otherwise it restarts from scratch.
			cfg.Injector = nil
			cfg.FailStop = nil
			cfg.LinkFault = nil
			cfg.NodeFault = nil
			cfg.Resume = resumeCP
			if resumeCP != nil {
				wasResume = true
				resumedAttempts++
			}
		}
		if cfg.CheckpointEvery > 0 {
			// Capture each snapshot as the attempt takes it, chaining any
			// caller-supplied sink. OnCheckpoint runs on this goroutine
			// (inside runDecomposition), so no synchronization is needed.
			sink := spec.Config.OnCheckpoint
			cfg.OnCheckpoint = func(cp *ftla.Checkpoint) {
				resumeCP = cp
				if sink != nil {
					sink(cp)
				}
			}
		}
		actx, acancel := jctx, context.CancelFunc(func() {})
		if s.cfg.AttemptTimeout > 0 {
			actx, acancel = context.WithTimeout(jctx, s.cfg.AttemptTimeout)
		}
		sys := s.pool.acquire(sysCfg)
		// Bind the attempt context into the system: kernels and transfers
		// gate on it, so cancellation, the job Deadline, and the attempt
		// timeout all abort mid-factorization instead of after it.
		sys.Bind(actx)
		if tr != nil {
			// Per-attempt spans accumulate into the job's one trace; the
			// pool's release → Reset detaches it with the other per-run
			// attachments.
			sys.SetTracer(tr)
		}
		attemptStart := time.Now()
		f, err := runDecomposition(sys, spec, cfg)
		acancel()
		ran := time.Since(attemptStart)
		// Every attempt hands its system back however it ended: the
		// pool's Reset repairs a fail-stop fault's damage too.
		s.pool.release(sys)
		// An attempt that does not settle the job names the error the job
		// fails with once its attempts are spent, and whether an expired
		// job budget takes precedence over that error.
		var spent error
		budgetFirst := true
		if err != nil {
			fo, failStop := s.met.classifyFailStop(err)
			switch {
			case failStop:
				// Fail-stop fault — a lost node, an exhausted PCIe link, or a
				// lost or hung device: degrade the platform unless only the
				// CPU faulted, and retry; the checkpoint machinery below
				// makes that retry a resume when one exists.
				fo.metric.Inc()
				s.met.abortSeconds.Observe(ran.Seconds())
				if tr != nil {
					tr.WallSpan(fo.span, "fault", attemptStart, ran)
				}
				if fo.degrade {
					degradeNode(&sysCfg)
				}
				spent = &FailStopError{Attempts: h.prior + attempt, Cause: err}
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				// Context abort without a device fault: the job was
				// canceled, its Deadline fired, or the AttemptTimeout
				// reaped a slow attempt. The system itself is healthy, and
				// with the job budget intact only the per-attempt timeout
				// expired: retryable.
				s.met.abortSeconds.Observe(ran.Seconds())
				spent = err
			default:
				// Construction-time errors (bad dimensions, invalid
				// options) are deterministic; retrying cannot help — except
				// when this attempt was a resume, where the checkpoint
				// itself may be the problem (e.g. it no longer matches the
				// job's configuration): drop it and fall back to a complete
				// restart, attempts permitting.
				if !wasResume {
					fail(err)
					return
				}
				resumeCP = nil
				spent = err
			}
		} else {
			if !needsRestart(f.Outcome) {
				if !spec.NoCache {
					s.cache.put(key, f)
				}
				s.settle(h, &JobResult{Factors: f, Attempts: h.prior + attempt, Resumed: resumedAttempts, Wait: wait, Trace: tr}, start)
				return
			}
			if f.Outcome == core.CorruptedResult {
				// Silent corruption: detection missed the fault, so the
				// run's checkpoints cannot be trusted either — the next
				// attempt must restart from scratch. DetectedCorrupt keeps
				// its checkpoints: they were verified clean before the
				// corruption struck.
				resumeCP = nil
			}
			// A corrupt result reports itself even past the job budget;
			// an expiry with attempts left surfaces in the backoff below.
			spent = &CorruptError{
				Outcome: f.Outcome, Report: f.Report(),
				Attempts: h.prior + attempt, Injected: injected(),
			}
			budgetFirst = false
		}
		if budgetFirst && jctx.Err() != nil {
			expire(attempt, err)
			return
		}
		if attempt >= s.cfg.Retry.MaxAttempts {
			fail(spent)
			return
		}
		// Classify the retry we are about to grant as a resume or a
		// restart; the total stays in retries so Retries == Restarts +
		// Resumed.
		if resumeCP != nil {
			s.met.resumes.Inc()
		} else {
			s.met.restarts.Inc()
		}
		s.met.retries.Inc()
		timer := time.NewTimer(s.cfg.Retry.Backoff(attempt, s.jitter()))
		select {
		case <-jctx.Done():
			// The budget ran out during the backoff sleep: a cancellation
			// or a typed deadline expiry, never a silent hang.
			timer.Stop()
			expire(attempt, nil)
			return
		case <-timer.C:
		}
	}
}

// settle finishes job h with the completed factorization res.Factors,
// fresh or cached, solo or coalesced: it fills the outcome fields, runs
// the solve leg when the spec carries a right-hand side, stamps Run as the
// service time since start, and records the job metrics. The caller sets
// the attempt count, Wait, and the per-path fields (CacheHit, Resumed,
// Trace).
func (s *Scheduler) settle(h *JobHandle, res *JobResult, start time.Time) {
	f := res.Factors
	res.Outcome, res.Residual, res.Coalesced = f.Outcome, f.Residual, h.coalesced
	if h.spec.B != nil {
		x, err := f.Solve(h.spec.B)
		if err != nil {
			s.met.failed.Inc()
			h.finish(nil, err)
			return
		}
		res.X = x
	}
	res.Run = time.Since(start)
	s.met.jobDone(f.Outcome, res.Wait, res.Run)
	h.finish(res, nil)
}

// failover is the failover rung's reading of a fail-stop abort: the
// counter it bumps, the trace span it emits, and whether the retry
// degrades the platform.
type failover struct {
	metric  *obs.Counter
	span    string
	degrade bool
}

// classifyFailStop maps err onto the failover rung; ok is false when err
// is not a fail-stop abort.
//
//   - A whole-node loss the coded redundancy could not absorb (its parity
//     was already spent, or no redundancy was configured) always degrades:
//     the retry runs with the dead node carved out.
//   - A PCIe link fault the reliable-transfer protocol could not absorb
//     is failed over exactly like a lost device (a flaky connector and a
//     dying card look the same from the host), and always degrades.
//   - A lost or hung device degrades only when it is a GPU; a CPU fault
//     leaves the platform shape alone.
//
// Degrading on a cluster retires a whole node, since a lone GPU cannot be
// carved out while the GPU count must stay divisible by the node count
// (see degradeNode).
func (m *metrics) classifyFailStop(err error) (fo failover, ok bool) {
	var nodeLost *hetsim.NodeLostError
	var link *hetsim.LinkError
	var lost *hetsim.DeviceLostError
	var hung *hetsim.DeviceHungError
	switch {
	case errors.As(err, &nodeLost):
		return failover{m.nodeLost, "node-lost:N" + strconv.Itoa(nodeLost.Node), true}, true
	case errors.As(err, &link):
		return failover{m.linkLost, "link-lost:GPU" + strconv.Itoa(link.Link), true}, true
	case errors.As(err, &lost):
		return failover{m.deviceLost, "device-lost:" + lost.Device, lost.GPU >= 0}, true
	case errors.As(err, &hung):
		return failover{m.deviceLost, "device-lost:" + hung.Device, hung.GPU >= 0}, true
	}
	return failover{}, false
}

// degradeNode shrinks a platform config by one node's worth of GPUs — the
// failover step after a whole-node loss (or a single-device loss on a
// cluster, where the GPU count must stay divisible by the node count). A
// two-node cluster degrades to the flat single-box config.
func degradeNode(cfg *hetsim.Config) {
	if n := cfg.Nodes; n > 1 {
		cfg.NumGPUs -= cfg.NumGPUs / n
		cfg.Nodes = n - 1
	} else if cfg.NumGPUs > 1 {
		cfg.NumGPUs--
	}
}

// runDecomposition executes one attempt on the given system and classifies
// its outcome from the report plus the service's own residual check.
func runDecomposition(sys *hetsim.System, spec JobSpec, cfg ftla.Config) (*Factorization, error) {
	f := &Factorization{Decomp: spec.Decomp}
	var err error
	switch spec.Decomp {
	case Cholesky:
		f.Chol, err = ftla.CholeskyOn(sys, spec.A, cfg)
	case LU:
		f.LU, err = ftla.LUOn(sys, spec.A, cfg)
	default:
		f.QR, err = ftla.QROn(sys, spec.A, cfg)
	}
	if err != nil {
		return nil, err
	}
	f.classify(spec.A, spec.tol())
	return f, nil
}
