// Package core implements the paper's contribution: algorithm-based fault
// tolerant (ABFT) blocked one-sided matrix decompositions — Cholesky, LU
// with partial pivoting, and Householder QR — on the simulated
// heterogeneous CPU+multi-GPU system of internal/hetsim, with
//
//   - full (two-dimensional) per-block checksum maintenance on the trailing
//     matrix and single-side checksums on decomposed panels (§IV),
//   - three checking schemes: the prior-operation and post-operation
//     schemes of earlier work and the paper's new prioritized scheme
//     (Algorithm 2) with heuristic TMU checking and post-broadcast panel
//     verification that protects PCIe communication (§VII),
//   - online error detection, localization, correction, 1-D row/column
//     reconstruction, and local in-memory restart recovery,
//   - verification counters reproducing Table VI and outcome
//     classification reproducing Table VIII.
package core

import (
	"errors"
	"fmt"
	"time"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
)

// Mode selects the checksum coverage.
type Mode int

// Checksum coverage modes.
const (
	// NoChecksum disables ABFT entirely — the unprotected baseline.
	NoChecksum Mode = iota
	// SingleSide maintains checksums in one dimension only (column
	// checksums), as in prior work [11][12][31][32].
	SingleSide
	// Full maintains checksums in both dimensions on the trailing matrix
	// and one dimension on decomposed panels (§IV).
	Full
)

// String returns "none", "single-side", or "full".
func (m Mode) String() string {
	switch m {
	case NoChecksum:
		return "none"
	case SingleSide:
		return "single-side"
	default:
		return "full"
	}
}

// Scheme selects when checksum verification happens.
type Scheme int

// Checking schemes.
const (
	// NoCheck performs no verification (valid only with NoChecksum).
	NoCheck Scheme = iota
	// PriorOp verifies every operation's inputs (reference and update
	// parts, including the trailing matrix before TMU) before the
	// operation runs [11][12].
	PriorOp
	// PostOp verifies every operation's outputs after it runs, including
	// the trailing matrix after every TMU [13][31][32].
	PostOp
	// NewScheme is the paper's Algorithm 2: checks prioritized by
	// operation sensitivity (PD and PU checked on both sides), panel
	// verification postponed until after the PCIe broadcast so
	// communication errors are caught, and all trailing-matrix checks
	// replaced by the heuristic panel checks of §VII.B.
	NewScheme
)

// String returns "none", "prior-op", "post-op", or "new".
func (s Scheme) String() string {
	switch s {
	case NoCheck:
		return "none"
	case PriorOp:
		return "prior-op"
	case PostOp:
		return "post-op"
	default:
		return "new"
	}
}

// Options configures a protected factorization.
type Options struct {
	// NB is the block size; the matrix order must be a multiple of NB
	// (the paper likewise rounds matrix sizes to MAGMA's block size).
	NB int
	// Mode and Scheme select the protection; see the type docs.
	Mode   Mode
	Scheme Scheme
	// Kernel selects the checksum-encoding kernel (§VIII): the GEMM-based
	// baseline or the optimized dedicated kernel.
	Kernel checksum.Kernel
	// Injector, when non-nil, injects the scheduled faults at the §X.A
	// timing points.
	Injector *fault.Injector
	// PeriodicTrailingCheck, when > 0, additionally verifies the whole
	// trailing matrix every k-th iteration under NewScheme — the paper's
	// mitigation for accumulating undetected on-chip 1-D propagations
	// (§VII.B). 0 disables it.
	PeriodicTrailingCheck int
	// FailStop arms fail-stop/performance fault plans on the simulated
	// devices at the start of the run, keyed by device index (-1 = CPU,
	// else GPU id). A firing plan aborts the factorization with a typed
	// hetsim.DeviceLostError / DeviceHungError instead of a result —
	// ABFT checksums cannot repair a device that is gone; the serving
	// layer's failover answers this class (see internal/service).
	FailStop map[int]hetsim.FaultPlan
	// LinkFault arms communication fault plans on the simulated PCIe
	// links at the start of the run, keyed by GPU index (link i is the
	// CPU<->GPUi path). Transient corruption and flaps are absorbed by
	// the reliable-transfer protocol's retransmissions; a link whose
	// faults exhaust the budget aborts the run with a typed
	// hetsim.LinkError, which the serving layer classifies like a device
	// loss (degraded failover).
	LinkFault map[int]hetsim.LinkFaultPlan
	// NodeFault arms whole-node loss plans on the topology's nodes at the
	// start of the run, keyed by node index. Plans due at the same ladder-
	// step epoch boundary fire together as one simultaneous burst, taking
	// down every GPU of each node at once. On a multi-node run the erasure-
	// coded redundancy columns rebuild the lost block columns from the
	// survivors and the run continues degraded, bit-identical to an
	// uninterrupted run; when some parity group has lost more columns than
	// its surviving parities can solve for (flat system, or losses beyond
	// Redundancy) the run aborts with a typed hetsim.NodeLostError for the
	// serving layer's failover ladder.
	NodeFault map[int]hetsim.NodeFaultPlan
	// Redundancy is the number r of erasure-coded parity columns each
	// cross-node parity group carries on a multi-node topology: the cluster
	// absorbs up to r node losses — sequential or simultaneous — with
	// bit-exact reconstruction. 0 (the zero value) means the default of 1;
	// values are clamped into [1, Nodes-1] at layout time (each group needs
	// at least one data column). Validate rejects negatives; the ftla and
	// service layers reject r >= Nodes before a run starts. Ignored on flat
	// single-node systems, which carry no parity at all.
	Redundancy int
	// Lookahead selects the step-runtime schedule: 0 (or negative) runs the
	// legacy fully serial ladder; 1 enables MAGMA-style look-ahead — the
	// CPU pulls and factorizes panel k+1 while the GPUs run step k's
	// trailing update on asynchronous streams, and each GPU's trailing
	// update runs concurrently with the others'. Results are bit-identical
	// in both schedules, and injection windows sit at the same logical
	// point of the factorization in both (see DESIGN.md §8).
	Lookahead int
	// CheckpointEvery, when > 0, snapshots the factorization state into a
	// host-side Checkpoint after every CheckpointEvery-th ladder step whose
	// verification passed — the snapshot is known-clean, so a later
	// rollback restores verified state. 0 (the zero value) disables
	// checkpointing entirely; behavior is then identical to a run without
	// this option, and OnCheckpoint must be nil (Validate rejects the
	// combination — a callback that can never fire is a configuration
	// bug, not a no-op). Negative values are rejected. The final step is
	// never checkpointed (there is nothing left to resume).
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each checkpoint as it is taken,
	// on the coordinating goroutine. It requires CheckpointEvery > 0:
	// Validate rejects OnCheckpoint without a checkpoint interval. The
	// serving layer uses this to keep the latest checkpoint across a
	// fail-stop abort; callers must treat the Checkpoint as immutable (the
	// runtime may restore from it later in the same run). nil (the zero
	// value) simply means no observer — checkpoints are still taken and
	// used for mid-run rollback.
	OnCheckpoint func(*Checkpoint)
	// Resume, when non-nil, starts the run from the checkpoint instead of
	// from the input matrix: the state is restored onto the *current*
	// device set (which may hold fewer GPUs than the run that took the
	// snapshot) and the ladder replays from Checkpoint.NextStep. The input
	// matrix must still be the original A — it anchors the final residual
	// check. A resumed run is bit-identical to an uninterrupted run on the
	// same final device set. nil (the zero value) starts from the input
	// matrix. Resume composes freely with CheckpointEvery (a resumed run
	// may take fresh checkpoints) but requires a checkpoint whose
	// N/NB/Mode/Scheme match this configuration — the mismatch is rejected
	// at run start, not here, because the order n is a run argument.
	Resume *Checkpoint
	// RebalanceEvery, when > 0, arms dynamic work repartitioning: the step
	// runtime measures each GPU's trailing-update time, EWMA-smooths a
	// per-column throughput estimate, and every RebalanceEvery ladder
	// steps re-apportions the remaining trailing block columns
	// proportionally to the estimated speeds, migrating ownership of
	// reassigned columns over simulated PCIe with their checksum strips
	// riding along (see DESIGN.md §10). Results are bit-identical to the
	// static layout: migration copies exact bits and every kernel's
	// per-column arithmetic is owner-independent. 0 (the zero value)
	// keeps the static block-column-cyclic layout for the whole run, as
	// does a single-GPU system (nothing to re-split); negative values are
	// rejected by Validate.
	RebalanceEvery int
	// stageJournal, when non-nil, receives the runtime's canonical stage
	// journal for the run (test hook; see runtime.go).
	stageJournal *[]stageRec
	// onRebalance, when non-nil, observes each applied rebalance: the
	// ladder step it ran after and its moves, each a global block column
	// and its destination GPU (test hook; see rebalance.go).
	onRebalance func(step int, moves []rebMove)
	// parityEvery, when positive, overrides the cross-node parity's
	// refresh interval c (parityInterval; test hook, see coded.go).
	parityEvery int
}

// Validate normalizes and sanity-checks the options for order n.
func (o *Options) Validate(n int) error {
	if o.NB <= 0 {
		o.NB = 64
	}
	if n <= 0 || n%o.NB != 0 {
		return fmt.Errorf("core: matrix order %d must be a positive multiple of NB=%d", n, o.NB)
	}
	if o.Mode == NoChecksum && o.Scheme != NoCheck {
		return fmt.Errorf("core: scheme %v requires checksums", o.Scheme)
	}
	if o.Mode != NoChecksum && o.Scheme == NoCheck {
		return fmt.Errorf("core: mode %v requires a checking scheme", o.Mode)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery %d must not be negative (0 disables checkpointing)", o.CheckpointEvery)
	}
	if o.OnCheckpoint != nil && o.CheckpointEvery <= 0 {
		return fmt.Errorf("core: OnCheckpoint requires CheckpointEvery > 0 (the callback would never fire)")
	}
	if o.RebalanceEvery < 0 {
		return fmt.Errorf("core: RebalanceEvery %d must not be negative (0 disables rebalancing)", o.RebalanceEvery)
	}
	if o.Redundancy < 0 {
		return fmt.Errorf("core: Redundancy %d must not be negative (0 means the default of 1)", o.Redundancy)
	}
	return nil
}

// ValidateBatch rejects the per-run options a batched dispatch of two or
// more items cannot share across them: checkpoint/resume, fail-stop,
// link-fault and node-fault plans, and rebalancing. Each is control flow
// of one run — every item's engine would re-arm the same plan, restarting
// a link plan's transfer count — so the batched drivers reject them in
// such a run (a run of one item takes them), and the serving layer
// dispatches jobs carrying them alone (ftla.Config.ValidateBatch). It is
// the one statement of that rule.
func (o *Options) ValidateBatch() error {
	switch {
	case o.CheckpointEvery != 0 || o.OnCheckpoint != nil || o.Resume != nil:
		return errors.New("core: checkpoint/resume options are not supported in batched runs")
	case len(o.FailStop) > 0 || len(o.LinkFault) > 0 || len(o.NodeFault) > 0:
		return errors.New("core: fail-stop, link-fault and node-fault plans are not supported in batched runs")
	case o.RebalanceEvery != 0:
		return errors.New("core: rebalancing is not supported in batched runs")
	}
	return nil
}

// ValidateTopology checks the option fields whose legality depends on the
// node count of the platform the run targets (Validate cannot — it only
// sees the matrix order). Redundancy must leave every cross-node parity
// group at least one data column, so on a multi-node topology r must stay
// below the node count. Flat single-box systems carry no parity and accept
// any value.
func (o *Options) ValidateTopology(nodes int) error {
	if nodes > 1 && o.Redundancy >= nodes {
		return fmt.Errorf("core: Redundancy %d must stay below the node count %d (each parity group needs at least one data column)",
			o.Redundancy, nodes)
	}
	return nil
}

// Counter tallies verification and recovery work, reproducing the
// quantities of Table VI (blocks verified per phase) plus recovery events.
type Counter struct {
	// Blocks verified, by phase.
	PDBefore  int
	PDAfter   int // post-broadcast under NewScheme
	PUBefore  int
	PUAfter   int
	TMUBefore int
	TMUAfter  int // heuristic panel checks under NewScheme
	// SwapChecks is the block-equivalent cost of the pre-interchange row
	// probes that keep the lazy on-chip detection of §VII.B sound under
	// LU partial pivoting (see DESIGN.md §4).
	SwapChecks int

	// Recovery events.
	CorrectedElements int // single elements fixed from a checksum
	ReconstructedLins int // whole rows/columns rebuilt from the orthogonal checksum
	LocalRestarts     int // PD/PU/TMU redone from a snapshot
	Rebroadcasts      int // panel broadcasts repeated after PCIe corruption
	DetectedErrors    int // verification mismatches observed
}

// TotalChecked returns the total number of block verifications
// (block-equivalents for row probes).
func (c *Counter) TotalChecked() int {
	return c.PDBefore + c.PDAfter + c.PUBefore + c.PUAfter + c.TMUBefore + c.TMUAfter + c.SwapChecks
}

// Outcome classifies how a protected run ended, the four-way outcome of
// the paper's coverage analysis (§X.B).
type Outcome int

// Run outcomes.
const (
	// FaultFree: no error was detected and the result verifies.
	FaultFree Outcome = iota
	// ABFTFixed: errors were detected and repaired online from checksums.
	ABFTFixed
	// LocalRestarted: errors were detected and repaired, but at least one
	// local in-memory restart was needed.
	LocalRestarted
	// DetectedCorrupt: an error was detected but could not be repaired
	// online; a complete restart is required, but the user is at least
	// warned (the detected half of the paper's "Complete Restart" bucket).
	DetectedCorrupt
	// CorruptedResult: the run finished but the result is wrong and the
	// fault escaped detection entirely — the paper's 'N' outcome.
	CorruptedResult
)

// String returns "fault-free", "abft-fixed", "local-restart",
// "detected-corrupt", or "corrupted".
func (o Outcome) String() string {
	switch o {
	case FaultFree:
		return "fault-free"
	case ABFTFixed:
		return "abft-fixed"
	case LocalRestarted:
		return "local-restart"
	case DetectedCorrupt:
		return "detected-corrupt"
	default:
		return "corrupted"
	}
}

// Result reports a protected factorization run.
type Result struct {
	N        int
	NB       int
	GPUs     int
	Mode     Mode
	Scheme   Scheme
	Kernel   checksum.Kernel
	Wall     time.Duration
	EncodeT  time.Duration // time spent encoding checksums
	VerifyT  time.Duration // time spent verifying checksums
	RecoverT time.Duration // time spent in recovery actions
	Counter  Counter
	// Detected is true when any verification mismatch fired.
	Detected bool
	// Unrecoverable is true when a detected error could not be repaired
	// online (the ABFT equivalent of "needs a complete restart").
	Unrecoverable bool
	// SimMakespan is the simulated-clock makespan from hetsim.
	SimMakespan float64
	// PCIeBytes is the total PCIe traffic.
	PCIeBytes int64
	// Flops counts the floating-point operations executed during the run
	// (data kernels plus all checksum encode/verify work). It is the
	// difference of two reads of the process-wide blas.Flops() counter,
	// one when the run starts and one when it finishes, so runs that
	// overlap in one process, such as the service's workers, count each
	// other's work; only a run alone in its process counts its own work
	// exactly.
	Flops uint64
	// Checkpoints counts the host-side snapshots taken by this run
	// (Options.CheckpointEvery > 0).
	Checkpoints int
	// Rollbacks counts mid-run rollbacks to the last checkpoint: detected
	// but uncorrectable corruption that was replayed from verified state
	// instead of surrendering to a complete restart.
	Rollbacks int
	// Rebalances counts applied repartitionings (rounds that actually
	// moved at least one column; Options.RebalanceEvery > 0).
	Rebalances int
	// MovedColumns counts block columns that migrated between GPUs across
	// all rebalances of the run.
	MovedColumns int
	// NodesLost counts whole-node losses that fired during the run
	// (absorbed by reconstruction or not).
	NodesLost int
	// Reconstructions counts block columns rebuilt from erasure-coded
	// parity after a node loss.
	Reconstructions int
	// InternodeBytes is the traffic that crossed the inter-node
	// interconnect (a subset of PCIeBytes' total), 0 on flat systems.
	InternodeBytes int64
}

// OutcomeOf derives the run outcome given whether the final residual check
// passed.
func (r *Result) OutcomeOf(residualOK bool) Outcome {
	switch {
	case !residualOK && (r.Detected || r.Unrecoverable):
		return DetectedCorrupt
	case !residualOK:
		return CorruptedResult
	case r.Counter.LocalRestarts > 0:
		return LocalRestarted
	case r.Detected:
		return ABFTFixed
	default:
		return FaultFree
	}
}

// engineSys bundles the pieces every decomposition driver needs.
type engineSys struct {
	decomp     string // decomposition name: cholesky, lu, qr
	sys        *hetsim.System
	opts       Options
	res        *Result
	pl         plan // the verification points opts.Scheme places
	inj        *fault.Injector
	startFlops uint64
}
