package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ftla"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/obs"
)

// Decomp selects the factorization a job runs.
type Decomp int

// Supported decompositions.
const (
	Cholesky Decomp = iota
	LU
	QR
)

// String returns the lowercase wire name used in job requests ("cholesky",
// "lu", "qr").
func (d Decomp) String() string {
	switch d {
	case Cholesky:
		return "cholesky"
	case LU:
		return "lu"
	default:
		return "qr"
	}
}

// Priority is a job's admission class. Higher classes are dispatched first;
// within a class jobs run in submission order.
type Priority int

// Priority classes, lowest to highest urgency.
const (
	Batch Priority = iota
	Normal
	Interactive
	numPriorities
)

// String returns the lowercase wire name used in job requests ("batch",
// "normal", "interactive").
func (p Priority) String() string {
	switch p {
	case Batch:
		return "batch"
	case Normal:
		return "normal"
	default:
		return "interactive"
	}
}

// JobSpec describes one factorization (and optional solve) request.
type JobSpec struct {
	// Decomp selects the factorization; A is its input. Cholesky requires a
	// symmetric positive definite A; all inputs must be square with order a
	// multiple of Config.NB.
	Decomp Decomp
	A      *ftla.Matrix
	// B, when non-nil, is a right-hand side to solve against the factor.
	B []float64
	// Config is the ftla configuration for the run (protection, scheme,
	// platform, injector). On retries the service reruns with
	// Config.Injector and the fault plans stripped — the transient fault
	// is assumed not to recur deterministically. When Config.CheckpointEvery is set, retries
	// prefer resuming from the job's last known-clean checkpoint over a
	// complete restart (see RetryPolicy); Config.OnCheckpoint, if set, is
	// chained after the service's own checkpoint capture.
	Config ftla.Config
	// Priority is the admission class (default Batch, the lowest).
	Priority Priority
	// ResidualTol is the residual threshold deciding whether the final
	// factor verifies (the paper's outcome classification input); <= 0
	// means 1e-9.
	ResidualTol float64
	// NoCache bypasses the factorization cache for this job (both lookup
	// and fill) — for injection experiments whose factor must not be served
	// to, or taken from, other traffic.
	NoCache bool
	// Trace requests a per-job obs.Trace: every attempt's simulated kernel
	// and PCIe spans plus the wall-clock ABFT phase spans accumulate into
	// JobResult.Trace, exportable as a Chrome trace (WriteChrome). Off by
	// default — the span slice grows with every kernel.
	Trace bool
	// Deadline bounds the job's total service time, measured from dispatch
	// (queue time excluded): all attempts, backoff sleeps, and the solve
	// must fit inside it. A job that cannot finish in time terminates with
	// a *DeadlineError — including mid-attempt, because the deadline is
	// bound into the running system and aborts kernels at the next gate.
	// Zero means no deadline. For a bound covering queue time too, pass a
	// context with a deadline to Submit.
	Deadline time.Duration
}

func (s *JobSpec) validate() error {
	if s.A == nil {
		return fmt.Errorf("service: job has no input matrix")
	}
	if s.A.Rows != s.A.Cols {
		return fmt.Errorf("service: input must be square, got %dx%d", s.A.Rows, s.A.Cols)
	}
	if s.Decomp < Cholesky || s.Decomp > QR {
		return fmt.Errorf("service: unknown decomposition %d", int(s.Decomp))
	}
	if s.B != nil && len(s.B) != s.A.Rows {
		return fmt.Errorf("service: rhs length %d != order %d", len(s.B), s.A.Rows)
	}
	if s.Priority < Batch {
		return fmt.Errorf("service: negative priority")
	}
	// The configuration's own rules, so a job no attempt could run fails
	// its Submit, not a worker (hetsim.New would even panic on GPUs that
	// do not divide over the nodes).
	return s.Config.Validate(s.A.Rows)
}

func (s *JobSpec) tol() float64 {
	if s.ResidualTol > 0 {
		return s.ResidualTol
	}
	return 1e-9
}

// batchable reports whether the job may share a coalesced batched dispatch
// with others of the same batchKey: its options must pass the batched
// drivers' own rule for two or more items (ftla.Config.ValidateBatch), and
// it must carry no per-job observation scope (Trace, Deadline). A fault
// Injector is batchable: the batched drivers carry injectors per item,
// which is exactly what the retry-isolation contract exercises (one
// injected item must not disturb its batchmates).
func (s *JobSpec) batchable() bool {
	return s.Config.ValidateBatch() == nil && !s.Trace && s.Deadline == 0
}

// coalesceKey identifies jobs that may share one coalesced batched
// dispatch: two jobs coalesce only when every field matches, because one
// batched ladder runs a single (shape, protection, scheme, kernel,
// schedule, platform) configuration across all of its items.
type coalesceKey struct {
	// decomp is the decomposition; n and nb are the per-item order and
	// ABFT block size.
	decomp Decomp
	n, nb  int
	// mode, scheme, and kernel are the protection configuration.
	mode   ftla.Protection
	scheme ftla.Scheme
	kernel ftla.Kernel
	// lookahead and periodicTrailingCheck are the schedule knobs that
	// shape the shared ladder.
	lookahead, periodicTrailingCheck int
	// redundancy is the erasure-code parity count on a multi-node
	// platform: it shapes the shared cluster layout, so jobs asking for
	// different parity depths must not coalesce.
	redundancy int
	// sys is the simulated platform the batch runs on (a comparable
	// value, so coalesceKey is usable as a map key).
	sys hetsim.Config
}

// batchKey identifies the coalescing bucket (see coalesceKey). Built from
// the Effective configuration so zero-value and explicit defaults land in
// the same bucket.
func (s *JobSpec) batchKey() coalesceKey {
	eff := s.Config.Effective()
	return coalesceKey{
		decomp: s.Decomp,
		n:      s.A.Rows, nb: eff.NB,
		mode: eff.Protection, scheme: eff.Scheme, kernel: eff.Kernel,
		lookahead:             eff.Lookahead,
		periodicTrailingCheck: eff.PeriodicTrailingCheck,
		redundancy:            eff.Redundancy,
		sys:                   eff.SystemConfig(),
	}
}

// Factorization is a completed, residual-verified factorization — the unit
// the cache stores and Solve reuses. Exactly one of the three result fields
// is set, per Decomp.
type Factorization struct {
	Decomp Decomp
	Chol   *ftla.CholeskyResult
	LU     *ftla.LUResult
	QR     *ftla.QRResult
	// Residual is ‖A − factors‖_F/‖A‖_F measured against the job's input.
	Residual float64
	// Outcome classifies the producing run (§X.B); cached entries are
	// always in a survivable bucket (never DetectedCorrupt/CorruptedResult).
	Outcome ftla.Outcome
}

// Report returns the producing run's statistics.
func (f *Factorization) Report() *ftla.Report {
	switch f.Decomp {
	case Cholesky:
		return f.Chol.Report
	case LU:
		return f.LU.Report
	default:
		return f.QR.Report
	}
}

// classify measures the factorization's residual against its input a and
// derives the producing run's outcome from its report and the job's
// residual tolerance.
func (f *Factorization) classify(a *ftla.Matrix, tol float64) {
	switch f.Decomp {
	case Cholesky:
		f.Residual = f.Chol.Residual(a)
	case LU:
		f.Residual = f.LU.Residual(a)
	default:
		f.Residual = f.QR.Residual(a)
	}
	f.Outcome = f.Report().OutcomeOf(f.Residual <= tol)
}

// Solve solves A·x = b against the stored factor.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	switch f.Decomp {
	case Cholesky:
		return f.Chol.Solve(b)
	case LU:
		return f.LU.Solve(b)
	default:
		return f.QR.Solve(b)
	}
}

// JobResult is the terminal state of a successful job.
type JobResult struct {
	// Outcome classifies the winning attempt (§X.B). Retried-away
	// corruption does not surface here — it surfaces in Attempts and in
	// Stats.Retries.
	Outcome ftla.Outcome
	// Factors is the factorization that served the job (fresh or cached).
	Factors *Factorization
	// X is the solution of A·x = B when the spec carried a right-hand side.
	X []float64
	// Residual is the factor's residual against the input matrix.
	Residual float64
	// Attempts counts factorization runs, 1 for a clean first pass; 0 for a
	// pure cache hit.
	Attempts int
	// Resumed counts the attempts (among Attempts) that replayed from a
	// mid-run checkpoint instead of restarting from scratch — nonzero only
	// when the job's Config set CheckpointEvery and a snapshot existed
	// when a retry was granted.
	Resumed int
	// CacheHit reports that the factorization was served from the cache
	// without running a decomposition.
	CacheHit bool
	// Coalesced is the number of jobs in the coalesced dispatch that
	// served this job, 0 for a dispatch of the job alone. A job retried
	// after its batched first attempt keeps the size of that dispatch.
	Coalesced int
	// Wait is queue time (submit → dispatch); Run is service time
	// (dispatch → completion, including retries and backoff). Every job
	// of a coalesced dispatch ends its Wait at the same dispatch instant,
	// and a retried job's Run covers its batched first attempt too.
	Wait, Run time.Duration
	// Trace holds the job's observability trace when the spec set Trace:
	// spans from every attempt (retried attempts included), on both the
	// wall and simulated clocks. Nil when tracing was not requested; empty
	// (Len 0) for pure cache hits, where no decomposition ran.
	Trace *obs.Trace
}

// CorruptError is the graceful-degradation terminal state: every allowed
// attempt ended in a result that needs a complete restart. It carries the
// last attempt's report so the caller can see what the ABFT layer observed.
type CorruptError struct {
	Outcome  ftla.Outcome
	Report   *ftla.Report
	Attempts int
	// Injected describes the faults the job's injector actually fired
	// (fault.Spec.Describe form), so a chaos-campaign failure is
	// diagnosable from the error alone. Empty when the job carried no
	// injector or nothing fired.
	Injected []string
}

// Error summarizes the terminal outcome, how many attempts were spent, and
// which scheduled faults fired.
func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("service: factorization %s after %d attempt(s)", e.Outcome, e.Attempts)
	if len(e.Injected) > 0 {
		msg += " [injected: " + strings.Join(e.Injected, "; ") + "]"
	}
	return msg
}

// DeadlineError is the terminal state of a job that ran out of time: the
// job-level JobSpec.Deadline expired (possibly mid-attempt or during a
// backoff sleep). It wraps context.DeadlineExceeded so
// errors.Is(err, context.DeadlineExceeded) holds.
type DeadlineError struct {
	// Deadline is the budget that was exceeded.
	Deadline time.Duration
	// Attempts counts factorization runs started before time ran out.
	Attempts int
	// Cause is the underlying abort, when the deadline reaped a running
	// attempt (e.g. a *hetsim.DeviceHungError); nil when the deadline
	// expired between attempts.
	Cause error
}

// Error summarizes the exceeded budget and any mid-attempt abort.
func (e *DeadlineError) Error() string {
	msg := fmt.Sprintf("service: job deadline %v exceeded after %d attempt(s)", e.Deadline, e.Attempts)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap lets errors.Is see context.DeadlineExceeded (and the cause chain).
func (e *DeadlineError) Unwrap() []error {
	errs := []error{context.DeadlineExceeded}
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// FailStopError is the terminal state of a job that lost devices on every
// allowed attempt: fail-stop faults (crash, hang) exhausted the retry
// budget even after the pool degraded to smaller platforms. It wraps the
// last attempt's typed device error.
type FailStopError struct {
	// Attempts counts factorization runs, all aborted by device loss.
	Attempts int
	// Cause is the last attempt's abort (*hetsim.DeviceLostError or
	// *hetsim.DeviceHungError).
	Cause error
}

// Error summarizes the exhausted retry budget and the final device fault.
func (e *FailStopError) Error() string {
	return fmt.Sprintf("service: device loss on all %d attempt(s): %v", e.Attempts, e.Cause)
}

// Unwrap exposes the device error for errors.As classification.
func (e *FailStopError) Unwrap() error { return e.Cause }

// Sentinel submission errors.
var (
	// ErrQueueFull rejects a Submit when the bounded queue is at capacity —
	// the backpressure signal; callers shed or retry later.
	ErrQueueFull = fmt.Errorf("service: queue full")
	// ErrClosed rejects a Submit after Close.
	ErrClosed = fmt.Errorf("service: scheduler closed")
)

// JobHandle tracks one submitted job.
type JobHandle struct {
	// ID is the scheduler-assigned job id, unique per scheduler.
	ID uint64

	spec     JobSpec
	ctx      context.Context
	enqueued time.Time

	done chan struct{}
	mu   sync.Mutex
	res  *JobResult
	err  error
}

// Done returns a channel closed when the job reaches a terminal state.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Poll returns the result if the job is finished (terminal == true).
func (h *JobHandle) Poll() (res *JobResult, err error, terminal bool) {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.res, h.err, true
	default:
		return nil, nil, false
	}
}

// Wait blocks until the job finishes or ctx expires. A ctx expiry abandons
// the wait, not the job.
func (h *JobHandle) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *JobHandle) finish(res *JobResult, err error) {
	h.mu.Lock()
	h.res, h.err = res, err
	h.mu.Unlock()
	close(h.done)
}

// needsRestart reports whether an outcome is in the paper's complete-restart
// bucket: the run's result cannot be trusted. DetectedCorrupt is the ABFT
// layer itself demanding the restart; CorruptedResult is the service's final
// residual check catching what detection missed (only reachable when the
// job ran a weakened protection config).
func needsRestart(o ftla.Outcome) bool {
	return o == core.DetectedCorrupt || o == core.CorruptedResult
}
