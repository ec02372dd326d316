package service

import (
	"sync"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/obs"
)

// Scheduler metric names, as registered in the scheduler's obs.Registry
// (see Config.Registry). Consumers addressing series programmatically
// (snapshot diffs, scrape assertions) should use these constants rather
// than string literals.
const (
	// MetricJobsSubmitted counts jobs accepted into the queue.
	MetricJobsSubmitted = "ftla_jobs_submitted_total"
	// MetricJobsRejected counts submissions refused with ErrQueueFull.
	MetricJobsRejected = "ftla_jobs_rejected_total"
	// MetricJobsCompleted counts jobs that finished with a JobResult.
	MetricJobsCompleted = "ftla_jobs_completed_total"
	// MetricJobsFailed counts jobs that finished with a non-cancellation
	// error (including CorruptError).
	MetricJobsFailed = "ftla_jobs_failed_total"
	// MetricJobsCanceled counts jobs whose context expired before or
	// during service.
	MetricJobsCanceled = "ftla_jobs_canceled_total"
	// MetricJobRetries counts all attempts beyond each job's first,
	// whatever form they take; it is always the sum of MetricJobRestarts
	// and MetricJobResumes.
	MetricJobRetries = "ftla_job_retries_total"
	// MetricJobRestarts counts retries that reran the factorization from
	// scratch: no checkpoint existed (CheckpointEvery unset, or the fault
	// struck before the first snapshot), the previous attempt's result was
	// silently corrupt (its checkpoints cannot be trusted), or a resume
	// attempt itself failed.
	MetricJobRestarts = "ftla_job_restarts_total"
	// MetricJobResumes counts retries that resumed from the job's last
	// known-clean checkpoint instead of restarting, replaying only the
	// steps after it — the cheap path after a device loss or a detected
	// uncorrectable corruption.
	MetricJobResumes = "ftla_job_resumes_total"
	// MetricJobOutcomes histograms completed jobs by the winning attempt's
	// outcome class (label "outcome": fault-free, abft-fixed, ...).
	MetricJobOutcomes = "ftla_job_outcomes_total"
	// MetricCacheHits / MetricCacheMisses count factorization-cache
	// lookups; MetricCacheEntries gauges the current entry count.
	MetricCacheHits    = "ftla_cache_hits_total"
	MetricCacheMisses  = "ftla_cache_misses_total"
	MetricCacheEntries = "ftla_cache_entries"
	// MetricSystemsCreated / MetricSystemsReused count system-pool misses
	// and hits.
	MetricSystemsCreated = "ftla_systems_created_total"
	MetricSystemsReused  = "ftla_systems_reused_total"
	// MetricQueueDepth gauges admitted-but-undispatched jobs;
	// MetricJobsRunning gauges jobs currently on a worker.
	MetricQueueDepth  = "ftla_queue_depth"
	MetricJobsRunning = "ftla_jobs_running"
	// MetricJobWaitSeconds / MetricJobRunSeconds are latency histograms
	// over completed jobs: queue time (submit → dispatch) and service time
	// (dispatch → terminal, including retries and backoff).
	MetricJobWaitSeconds = "ftla_job_wait_seconds"
	MetricJobRunSeconds  = "ftla_job_run_seconds"
	// MetricDeviceLost counts attempts aborted by a fail-stop device fault
	// (crash or deadline-reaped hang) — the failures ABFT cannot repair.
	MetricDeviceLost = "ftla_device_lost_total"
	// MetricLinkLost counts attempts aborted by a PCIe link fault the
	// reliable-transfer protocol could not absorb (retransmission budget
	// exhausted); the platform degrades around the link's GPU as after a
	// lost device.
	MetricLinkLost = "ftla_link_lost_total"
	// MetricNodeFailover counts attempts aborted by a whole-node loss the
	// coded redundancy could not absorb (*hetsim.NodeLostError), engaging
	// the scheduler's node-failover ladder: release the system, carve the
	// dead node out of the platform, resume or restart. Distinct from the library's
	// ftla_node_lost_total in obs.Default, which counts every armed node
	// fault firing — including the ones parity reconstruction absorbed.
	MetricNodeFailover = "ftla_node_failover_total"
	// MetricJobsDeadlineExceeded counts jobs terminated with a
	// *DeadlineError (JobSpec.Deadline budget exhausted).
	MetricJobsDeadlineExceeded = "ftla_jobs_deadline_exceeded_total"
	// MetricAttemptAbortSeconds histograms the wall-clock time an attempt
	// ran before being aborted (device loss, hang reap, cancellation) —
	// the work lost per abort.
	MetricAttemptAbortSeconds = "ftla_attempt_abort_seconds"
	// MetricBatchSize histograms the size of every coalesced dispatch, one
	// of two or more jobs (a job dispatched alone runs the same one-item
	// batched attempt but is not observed).
	MetricBatchSize = "ftla_batch_size"
	// MetricBatchJobsCoalesced counts jobs served through coalesced
	// batched dispatches (the histogram's sample sum, as a counter).
	MetricBatchJobsCoalesced = "ftla_batch_jobs_coalesced_total"
	// MetricBatchDispatches counts coalesced batched dispatches issued
	// (the histogram's sample count, as a counter).
	MetricBatchDispatches = "ftla_batch_dispatches_total"
	// MetricDeviceUtilization gauges each simulated device's overlap
	// utilization (label "device"): aggregated busy seconds over aggregated
	// logical makespan across every pooled system released so far, with
	// one series per GPU PCIe link ("PCIe0", ...) beside the devices.
	// Parallel links and Lookahead overlap push devices and links toward
	// 1 independently; the values do not sum to 1.
	MetricDeviceUtilization = "ftla_device_utilization"
)

// Stats is a point-in-time snapshot of the scheduler's aggregate behavior:
// admission and completion counters, the outcome histogram over winning
// attempts (§X.B buckets), retry volume, cache effectiveness, system-pool
// reuse, latency aggregates, and fleet-wide device utilization.
//
// Every counter and gauge here is a read of the scheduler's obs.Registry
// (see Config.Registry): Stats is the convenience struct view, /metrics
// the exposition view, of the same instruments.
type Stats struct {
	// Admission.
	Submitted uint64 // accepted into the queue
	Rejected  uint64 // refused with ErrQueueFull (backpressure)
	// Terminal states.
	Completed uint64 // finished with a JobResult
	Failed    uint64 // finished with a non-cancellation error (incl. CorruptError)
	Canceled  uint64 // context canceled/expired before or during service
	// Retries counts attempts beyond each job's first across all jobs,
	// in either form; Retries == Restarts + Resumed always. Restarts are
	// reruns from scratch; Resumed are replays from the job's last
	// known-clean checkpoint (see MetricJobRestarts / MetricJobResumes
	// for when each applies).
	Retries  uint64
	Restarts uint64
	Resumed  uint64
	// DeviceLost counts attempts aborted by fail-stop device faults;
	// LinkLost counts attempts aborted by unabsorbed PCIe link faults;
	// DeadlineExceeded counts jobs terminated by their Deadline budget;
	// AbortedAttempts counts all aborted attempts (the abort-duration
	// histogram's sample count).
	// NodeFailovers counts attempts aborted by an unabsorbed whole-node
	// loss (see MetricNodeFailover).
	DeviceLost       uint64
	LinkLost         uint64
	NodeFailovers    uint64
	DeadlineExceeded uint64
	AbortedAttempts  uint64
	// Outcomes histograms the winning attempt of completed jobs by the
	// paper's outcome classes ("fault-free", "abft-fixed", ...). Cache hits
	// count under the cached factor's outcome.
	Outcomes map[string]uint64

	// Cache.
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int

	// System pool.
	SystemsCreated uint64
	SystemsReused  uint64

	// Batching. BatchDispatches counts coalesced dispatches;
	// JobsCoalesced counts jobs they carried (mean batch size is the
	// ratio). Jobs dispatched alone appear in neither.
	BatchDispatches uint64
	JobsCoalesced   uint64

	// JobsPerSec is completed jobs per wall second since the scheduler
	// started — the serving-throughput headline the batched dispatch path
	// exists to raise.
	JobsPerSec float64

	// Gauges.
	QueueDepth int // jobs admitted, not yet dispatched
	Running    int // jobs currently on a worker

	// Latency aggregates over completed jobs.
	AvgWait, MaxWait time.Duration // submit → dispatch
	AvgRun, MaxRun   time.Duration // dispatch → terminal (incl. retries/backoff)

	// Devices aggregates simulated busy time per device name across every
	// pooled system released so far (jobs still running are not included).
	Devices []hetsim.DeviceStat
}

// metrics bundles the scheduler's registry instruments. Counters and
// gauges are updated at the point the event happens (atomic hot paths);
// only the latency maxima live behind the sink mutex, because a running
// maximum is not expressible as a counter or histogram.
type metrics struct {
	reg *obs.Registry

	submitted, rejected     *obs.Counter
	completed, failed       *obs.Counter
	canceled, retries       *obs.Counter
	restarts, resumes       *obs.Counter
	outcomes                *obs.CounterVec
	cacheHits, cacheMisses  *obs.Counter
	cacheEntries            *obs.Gauge
	sysCreated, sysReused   *obs.Counter
	queueDepth, running     *obs.Gauge
	waitSeconds, runSeconds *obs.Histogram
	deviceLost              *obs.Counter
	linkLost                *obs.Counter
	nodeLost                *obs.Counter
	deadlineExceeded        *obs.Counter
	abortSeconds            *obs.Histogram
	deviceUtil              *obs.FloatGaugeVec
	batchSize               *obs.Histogram
	batchCoalesced          *obs.Counter
	batchDispatches         *obs.Counter

	mu              sync.Mutex
	waitMax, runMax time.Duration
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:       reg,
		submitted: reg.Counter(MetricJobsSubmitted, "Jobs accepted into the queue."),
		rejected:  reg.Counter(MetricJobsRejected, "Submissions refused with ErrQueueFull (backpressure)."),
		completed: reg.Counter(MetricJobsCompleted, "Jobs finished with a JobResult."),
		failed:    reg.Counter(MetricJobsFailed, "Jobs finished with a non-cancellation error."),
		canceled:  reg.Counter(MetricJobsCanceled, "Jobs whose context expired before or during service."),
		retries:   reg.Counter(MetricJobRetries, "Attempts beyond each job's first (restarts + resumes)."),
		restarts:  reg.Counter(MetricJobRestarts, "Retries that reran the factorization from scratch."),
		resumes:   reg.Counter(MetricJobResumes, "Retries that resumed from the job's last checkpoint."),
		outcomes: reg.CounterVec(MetricJobOutcomes,
			"Completed jobs by winning-attempt outcome class (§X.B).", "outcome"),
		cacheHits:    reg.Counter(MetricCacheHits, "Factorization-cache hits."),
		cacheMisses:  reg.Counter(MetricCacheMisses, "Factorization-cache misses."),
		cacheEntries: reg.Gauge(MetricCacheEntries, "Factorization-cache entries currently resident."),
		sysCreated:   reg.Counter(MetricSystemsCreated, "Simulated systems constructed (pool misses)."),
		sysReused:    reg.Counter(MetricSystemsReused, "Simulated systems reused from the pool."),
		queueDepth:   reg.Gauge(MetricQueueDepth, "Jobs admitted but not yet dispatched."),
		running:      reg.Gauge(MetricJobsRunning, "Jobs currently executing on a worker."),
		waitSeconds: reg.Histogram(MetricJobWaitSeconds,
			"Queue time of completed jobs (submit to dispatch), seconds.", nil),
		runSeconds: reg.Histogram(MetricJobRunSeconds,
			"Service time of completed jobs (dispatch to terminal, incl. retries), seconds.", nil),
		deviceLost: reg.Counter(MetricDeviceLost,
			"Attempts aborted by fail-stop device faults (crash or reaped hang)."),
		linkLost: reg.Counter(MetricLinkLost,
			"Attempts aborted by PCIe link faults that exhausted retransmission."),
		nodeLost: reg.Counter(MetricNodeFailover,
			"Attempts aborted by whole-node losses the coded redundancy could not absorb."),
		deadlineExceeded: reg.Counter(MetricJobsDeadlineExceeded,
			"Jobs terminated by their JobSpec.Deadline budget."),
		abortSeconds: reg.Histogram(MetricAttemptAbortSeconds,
			"Wall-clock time an attempt ran before being aborted, seconds.", nil),
		deviceUtil: reg.FloatGaugeVec(MetricDeviceUtilization,
			"Per-device overlap utilization: busy seconds over logical makespan, aggregated across released systems.", "device"),
		batchSize: reg.Histogram(MetricBatchSize,
			"Size of each coalesced batched dispatch (jobs per dispatch).", obs.BatchSizeBuckets()),
		batchCoalesced: reg.Counter(MetricBatchJobsCoalesced,
			"Jobs served through coalesced batched dispatches."),
		batchDispatches: reg.Counter(MetricBatchDispatches,
			"Coalesced batched dispatches issued."),
	}
}

// jobDone records one completed job: completion counter, outcome series,
// latency histograms, and the mutex-held maxima.
func (m *metrics) jobDone(outcome ftla.Outcome, wait, run time.Duration) {
	m.completed.Inc()
	m.outcomes.With(outcome.String()).Inc()
	m.waitSeconds.Observe(wait.Seconds())
	m.runSeconds.Observe(run.Seconds())
	m.mu.Lock()
	if wait > m.waitMax {
		m.waitMax = wait
	}
	if run > m.runMax {
		m.runMax = run
	}
	m.mu.Unlock()
}

// snapshot folds the instruments into a Stats value; the scheduler adds
// the queue gauges (which it owns under its own mutex) and the device
// aggregate.
func (m *metrics) snapshot() Stats {
	st := Stats{
		Submitted:        m.submitted.Value(),
		Rejected:         m.rejected.Value(),
		Completed:        m.completed.Value(),
		Failed:           m.failed.Value(),
		Canceled:         m.canceled.Value(),
		Retries:          m.retries.Value(),
		Restarts:         m.restarts.Value(),
		Resumed:          m.resumes.Value(),
		Outcomes:         m.outcomes.Values(),
		CacheHits:        m.cacheHits.Value(),
		CacheMisses:      m.cacheMisses.Value(),
		CacheEntries:     int(m.cacheEntries.Value()),
		SystemsCreated:   m.sysCreated.Value(),
		SystemsReused:    m.sysReused.Value(),
		DeviceLost:       m.deviceLost.Value(),
		LinkLost:         m.linkLost.Value(),
		NodeFailovers:    m.nodeLost.Value(),
		DeadlineExceeded: m.deadlineExceeded.Value(),
		AbortedAttempts:  m.abortSeconds.Count(),
		BatchDispatches:  m.batchDispatches.Value(),
		JobsCoalesced:    m.batchCoalesced.Value(),
	}
	if n := m.waitSeconds.Count(); n > 0 {
		st.AvgWait = time.Duration(m.waitSeconds.Sum() / float64(n) * float64(time.Second))
	}
	if n := m.runSeconds.Count(); n > 0 {
		st.AvgRun = time.Duration(m.runSeconds.Sum() / float64(n) * float64(time.Second))
	}
	m.mu.Lock()
	st.MaxWait, st.MaxRun = m.waitMax, m.runMax
	m.mu.Unlock()
	return st
}
