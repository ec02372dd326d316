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

// Checksum coverage modes. The zero value is Full, the paper's coverage.
const (
	// Full maintains checksums in both dimensions on the trailing matrix
	// and one dimension on decomposed panels (§IV).
	Full Mode = iota
	// SingleSide maintains checksums in one dimension only (column
	// checksums), as in prior work [11][12][31][32].
	SingleSide
	// NoChecksum disables ABFT entirely — the unprotected baseline.
	NoChecksum
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

// Checking schemes. The zero value is NewScheme, the paper's scheme.
const (
	// NewScheme is the paper's Algorithm 2: checks prioritized by
	// operation sensitivity (PD and PU checked on both sides), panel
	// verification postponed until after the PCIe broadcast so
	// communication errors are caught, and all trailing-matrix checks
	// replaced by the heuristic panel checks of §VII.B.
	NewScheme Scheme = iota
	// PriorOp verifies every operation's inputs (reference and update
	// parts, including the trailing matrix before TMU) before the
	// operation runs [11][12].
	PriorOp
	// PostOp verifies every operation's outputs after it runs, including
	// the trailing matrix after every TMU [13][31][32].
	PostOp
	// NoCheck performs no verification (valid only with NoChecksum).
	NoCheck
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

// Options selects the simulated platform and the protection of a
// factorization run. The zero value is the paper's configuration: 1 GPU,
// NB=64, full checksums under the new checking scheme, and the optimized
// encoding kernel. The platform fields (GPUs, Nodes, System) choose the
// system a run builds; a run on a caller-provided system ignores them.
type Options struct {
	// GPUs is the number of simulated GPUs (0 means 1).
	GPUs int
	// NB is the block size; the matrix order must be a multiple of NB
	// (the paper likewise rounds matrix sizes to MAGMA's block size). 0
	// means 64.
	NB int
	// Protection and Scheme choose the ABFT configuration; their zero
	// values are Full and NewScheme. To run unprotected set Protection:
	// NoChecksum with Scheme: NoCheck — each without the other is refused.
	Protection Mode
	Scheme     Scheme
	// Kernel selects the checksum-encoding kernel (§VIII): the optimized
	// dedicated kernel (the zero value) or the GEMM-based baseline.
	Kernel checksum.Kernel
	// Injector, when non-nil, injects the scheduled faults at the §X.A
	// timing points.
	Injector *fault.Injector
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
	// Nodes > 1 spreads the GPUs round-robin over that many cluster nodes
	// behind a slower inter-node interconnect (GPUs must be divisible by
	// Nodes). Multi-node runs maintain erasure-coded parity columns across
	// nodes so up to Redundancy whole-node losses are reconstructed in
	// place and the run continues degraded, bit-identical to an
	// uninterrupted run. 0 or 1 is the flat single-box topology.
	Nodes int
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
	// bit-exact reconstruction. 0 means the default of 1. r must stay
	// below the node count (each parity group needs at least one data
	// column) or the run is rejected before it starts. Ignored on flat
	// single-node systems, which carry no parity at all.
	Redundancy int
	// PeriodicTrailingCheck, when > 0, additionally verifies the whole
	// trailing matrix every k-th iteration under NewScheme — the paper's
	// mitigation for accumulating undetected on-chip 1-D propagations
	// (§VII.B). 0 disables it.
	PeriodicTrailingCheck int
	// Lookahead selects the step-runtime schedule: 0 (or negative) runs the
	// serial ladder; 1 enables MAGMA-style look-ahead — the CPU pulls and
	// factorizes panel k+1 while the GPUs run step k's trailing update on
	// asynchronous streams, and each GPU's trailing update runs
	// concurrently with the others'. Results are bit-identical in both
	// schedules, and injection windows sit at the same logical point of
	// the factorization in both (see DESIGN.md §8).
	Lookahead int
	// CheckpointEvery, when > 0, snapshots the factorization state into a
	// host-side Checkpoint after every CheckpointEvery-th ladder step whose
	// verification passed — the snapshot is known-clean, so an
	// uncorrectable mid-run corruption rolls back to it and replays instead
	// of surrendering the run, and the serving layer resumes a device-loss
	// abort from it on the surviving GPUs. 0 disables checkpointing;
	// negative values are rejected. The final step is never checkpointed
	// (there is nothing left to resume).
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each checkpoint as it is taken,
	// on the coordinating goroutine. It requires CheckpointEvery > 0 (a
	// callback that can never fire is a configuration bug, not a no-op).
	// Callers must treat the Checkpoint as immutable: the runtime may
	// restore from it later in the same run.
	OnCheckpoint func(*Checkpoint)
	// Resume, when non-nil, starts the run from the checkpoint instead of
	// from the input matrix: the state is restored onto the *current*
	// device set (which may hold fewer GPUs than the run that took the
	// snapshot) and the ladder replays from Checkpoint.NextStep. The input
	// matrix must still be the original A — it anchors the final residual
	// check. A resumed run is bit-identical to an uninterrupted run on the
	// same final device set, and may take fresh checkpoints. The
	// checkpoint's N/NB/Mode/Scheme must match this configuration; the
	// mismatch is rejected at run start, because the order n is a run
	// argument.
	Resume *Checkpoint
	// RebalanceEvery, when > 0, arms dynamic work repartitioning: the step
	// runtime measures each GPU's trailing-update time, EWMA-smooths a
	// per-column throughput estimate, and every RebalanceEvery ladder
	// steps re-apportions the remaining trailing block columns
	// proportionally to the estimated speeds, migrating ownership of
	// reassigned columns over simulated PCIe with their checksum strips
	// riding along (see DESIGN.md §10). Results are bit-identical to the
	// static layout: migration copies exact bits and every kernel's
	// per-column arithmetic is owner-independent. 0 keeps the static
	// block-column-cyclic layout for the whole run, as does a single-GPU
	// system (nothing to re-split); negative values are rejected.
	RebalanceEvery int
	// System overrides the simulated platform (worker counts, nominal
	// speeds); nil uses hetsim.DefaultConfig(GPUs).
	System *hetsim.Config
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

// Effective returns the options with every default applied — the exact
// values a run with them uses: 1 GPU, NB=64, and Redundancy 1 on a
// cluster. Serving layers compare Effective options to decide which queued
// jobs may share one batched dispatch, so a default written out and one
// left zero compare equal. A negative Redundancy is left for Validate to
// reject.
func (o Options) Effective() Options {
	if o.GPUs <= 0 {
		o.GPUs = 1
	}
	if o.NB <= 0 {
		o.NB = 64
	}
	if o.Nodes > 1 && o.Redundancy == 0 {
		o.Redundancy = 1
	}
	return o
}

// SystemConfig returns the hetsim.Config the options select — the platform
// a run that builds its own system constructs. It is a comparable value,
// which lets callers that pool simulated systems (internal/service) key
// pooled instances by platform.
func (o Options) SystemConfig() hetsim.Config {
	sc := hetsim.DefaultConfig(o.Effective().GPUs)
	if o.System != nil {
		sc = *o.System
	}
	if o.Nodes > 1 {
		sc.Nodes = o.Nodes
	}
	return sc
}

// Validate reports whether a run of order n under o is rejected before it
// starts, with the error the run would return: the platform's rule first
// (hetsim.Config.Validate), then the option rules (NB divides n, a
// consistent Protection/Scheme pair, non-negative checkpoint and rebalance
// intervals and Redundancy, OnCheckpoint only with CheckpointEvery), then
// Redundancy below the platform's node count. Serving layers call it to
// refuse a bad job at admission instead of failing it on a worker.
func (o Options) Validate(n int) error {
	sc := o.SystemConfig()
	if err := sc.Validate(); err != nil {
		return err
	}
	return o.Effective().validate(n, sc.Nodes)
}

// validate checks the option rules of Effective options for a run of
// order n on a platform of the given node count.
func (o Options) validate(n, nodes int) error {
	if n <= 0 || n%o.NB != 0 {
		return fmt.Errorf("core: matrix order %d must be a positive multiple of NB=%d", n, o.NB)
	}
	if o.Protection == NoChecksum && o.Scheme != NoCheck {
		return fmt.Errorf("core: scheme %v requires checksums", o.Scheme)
	}
	if o.Protection != NoChecksum && o.Scheme == NoCheck {
		return fmt.Errorf("core: mode %v requires a checking scheme", o.Protection)
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
	// Every cross-node parity group needs at least one data column; flat
	// systems carry no parity and accept any value.
	if nodes > 1 && o.Redundancy >= nodes {
		return fmt.Errorf("core: Redundancy %d must stay below the node count %d (each parity group needs at least one data column)",
			o.Redundancy, nodes)
	}
	return nil
}

// ValidateBatch rejects the per-run options a batched dispatch of two or
// more items cannot share across them: checkpoint/resume, fail-stop,
// link-fault and node-fault plans, and rebalancing. Each is control flow
// of one run — every item's engine would re-arm the same plan, restarting
// a link plan's transfer count — so the batched drivers reject them in
// such a run (a run of one item takes them), and the serving layer
// dispatches jobs carrying them alone. It is the one statement of that
// rule. Options.Injector is not judged here: such a batch rejects a
// shared injector and takes per-item ones.
func (o Options) ValidateBatch() error {
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
