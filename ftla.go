// Package ftla (Fault-Tolerant Linear Algebra) is the public API of this
// repository: algorithm-based fault tolerant (ABFT) one-sided matrix
// decompositions — Cholesky, LU with partial pivoting, and Householder QR
// — executed on a simulated heterogeneous CPU+multi-GPU node, reproducing
// "Fault Tolerant One-sided Matrix Decompositions on Heterogeneous Systems
// with GPUs" (SC 2018).
//
// The protected factorizations maintain dual-weight checksums in one or
// two dimensions, verify them under configurable checking schemes
// (prior-operation, post-operation, or the paper's prioritized new
// scheme), detect and correct soft errors online — including PCIe
// communication errors — and report detailed verification/recovery
// statistics.
//
// Quick start:
//
//	a := ftla.RandomSPD(512, 1)
//	res, err := ftla.Cholesky(a, ftla.Config{GPUs: 2})
//	x := res.Solve(b) // solve A·x = b using the protected factor
//
// Fault injection (for experiments):
//
//	inj := ftla.NewInjector(42)
//	inj.Schedule(ftla.FaultSpec{Kind: ftla.FaultDRAM, Op: ftla.OpTMU, Iteration: 3})
//	res, err := ftla.LU(a, ftla.Config{GPUs: 2, Injector: inj})
package ftla

import (
	"fmt"

	"ftla/internal/checksum"
	"ftla/internal/core"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix = matrix.Dense

// NewMatrix allocates a zeroed r-by-c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.NewDense(r, c) }

// FromRows builds a matrix from row slices (copying the input).
func FromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// Random returns an r-by-c matrix with uniform entries in [-1, 1),
// deterministic in seed.
func Random(r, c int, seed uint64) *Matrix {
	return matrix.Random(r, c, matrix.NewRNG(seed))
}

// RandomSPD returns a random n-by-n symmetric positive definite matrix,
// deterministic in seed — a valid Cholesky input.
func RandomSPD(n int, seed uint64) *Matrix {
	return matrix.RandomSPD(n, matrix.NewRNG(seed))
}

// RandomDiagDominant returns a random strictly diagonally dominant n-by-n
// matrix, deterministic in seed — a well-conditioned LU input.
func RandomDiagDominant(n int, seed uint64) *Matrix {
	return matrix.RandomDiagDominant(n, matrix.NewRNG(seed))
}

// Protection selects the checksum coverage.
type Protection = core.Mode

// Protection levels.
const (
	// NoProtection runs the plain factorization (the overhead baseline).
	NoProtection = core.NoChecksum
	// SingleSide maintains checksums in one dimension, as in prior work.
	SingleSide = core.SingleSide
	// FullChecksum maintains checksums in both dimensions on the trailing
	// matrix — the paper's contribution (§IV).
	FullChecksum = core.Full
)

// Scheme selects when verification happens.
type Scheme = core.Scheme

// Checking schemes.
const (
	// PriorOp verifies operation inputs before each operation.
	PriorOp = core.PriorOp
	// PostOp verifies operation outputs after each operation.
	PostOp = core.PostOp
	// NewScheme is the paper's prioritized checking scheme (Algorithm 2),
	// including post-broadcast verification that protects PCIe.
	NewScheme = core.NewScheme
)

// Kernel selects the checksum-encoding kernel (§VIII).
type Kernel = checksum.Kernel

// Checksum-encoding kernels.
const (
	// GEMMKernel is the general-matrix-multiply baseline of prior work.
	GEMMKernel = checksum.GEMMKernel
	// OptKernel is the paper's optimized dedicated encoding kernel.
	OptKernel = checksum.OptKernel
)

// Report carries the per-run statistics: timing breakdown, verification
// counters (Table VI), detection/recovery events, and PCIe traffic.
type Report = core.Result

// Outcome classifies a run (§X.B): fault-free, fixed online, locally
// restarted, detected-but-corrupt, or silently corrupted.
type Outcome = core.Outcome

// Injector schedules fault injections (§V fault model, §X.A timing).
type Injector = fault.Injector

// NewInjector creates a deterministic fault injector.
func NewInjector(seed uint64) *Injector { return fault.NewInjector(seed) }

// FaultSpec schedules one fault; see the fields of fault.Spec.
type FaultSpec = fault.Spec

// Fault kinds (§V).
const (
	// FaultCompute flips a bit of a freshly computed element.
	FaultCompute = fault.Computation
	// FaultDRAM corrupts a stored element (multi-bit, ECC-resistant).
	FaultDRAM = fault.OffChipMemory
	// FaultOnChip corrupts a transiently cached value (no write-back).
	FaultOnChip = fault.OnChipMemory
	// FaultPCIe corrupts an element of a transferred panel.
	FaultPCIe = fault.Communication
)

// Fault target operations.
const (
	OpPD  = fault.PD
	OpPU  = fault.PU
	OpTMU = fault.TMU
	OpCTF = fault.CTF
)

// Fault target parts.
const (
	RefPart    = fault.ReferencePart
	UpdatePart = fault.UpdatePart
)

// FailStopPlan arms a fail-stop or performance fault on one simulated
// device: a crash (the device is gone; operations on it return
// DeviceLostError), a hang (the triggering kernel blocks until a deadline
// fires), or a straggler (sim-time and wall-time cost multiplied). This is
// the failure class ABFT checksums cannot repair — the serving layer
// (internal/service) degrades gracefully around it instead.
type FailStopPlan = hetsim.FaultPlan

// Fail-stop fault modes for FailStopPlan.Mode.
const (
	// FailCrash fail-stops the device.
	FailCrash = hetsim.FaultCrash
	// FailHang blocks the triggering operation until a deadline fires.
	FailHang = hetsim.FaultHang
	// FailStraggler slows the device without stopping it.
	FailStraggler = hetsim.FaultStraggler
)

// LinkFaultPlan arms a communication fault on one simulated CPU<->GPU
// PCIe link: silent payload corruption, dropped transfers, a flapping
// link that heals after Count failures, or degraded bandwidth. The
// reliable-transfer protocol the drivers use absorbs transient corruption
// and flaps by checksummed retransmission; a link that exhausts its
// retransmission budget aborts the run with a typed *LinkError, which the
// serving layer treats like a device loss (degraded failover).
type LinkFaultPlan = hetsim.LinkFaultPlan

// Link fault modes for LinkFaultPlan.Mode.
const (
	// LinkCorrupt silently flips a bit of a transferred payload element.
	LinkCorrupt = hetsim.LinkCorrupt
	// LinkDrop fails the transfer with a typed *LinkError.
	LinkDrop = hetsim.LinkDrop
	// LinkFlap fails the next Count transfers on the link, then heals.
	LinkFlap = hetsim.LinkFlap
	// LinkDegrade multiplies the link's bandwidth cost by Factor.
	LinkDegrade = hetsim.LinkDegrade
)

// LinkError is the typed error a factorization returns when a PCIe link
// fault could not be absorbed by retransmission.
type LinkError = hetsim.LinkError

// NodeFaultPlan arms a whole-node loss on a multi-node topology
// (Config.NodeFault): every GPU of the node fail-stops at once at a
// ladder-step boundary, and plans due at the same boundary fire together
// as one correlated burst. With the cluster layer's erasure-coded
// redundancy the run rebuilds the lost columns from the survivors and
// continues degraded — up to Config.Redundancy losses, sequential or
// simultaneous; a loss beyond that aborts with a typed *NodeLostError.
type NodeFaultPlan = hetsim.NodeFaultPlan

// NodeLostError is the typed error a factorization returns when a
// whole-node loss could not be absorbed by the coded redundancy — some
// parity group lost more columns than its surviving parity columns can
// solve for.
type NodeLostError = hetsim.NodeLostError

// ErrCheckpointIntegrity is wrapped by the error a resume (or mid-run
// rollback) returns when the checkpoint's content no longer matches the
// checksum taken at capture — a tampered or corrupted snapshot is
// rejected, never replayed.
var ErrCheckpointIntegrity = core.ErrCheckpointIntegrity

// DeviceLostError is the typed error a factorization returns when a
// simulated device fail-stops mid-run.
type DeviceLostError = hetsim.DeviceLostError

// DeviceHungError is the typed error a factorization returns when a hung
// device was reaped by a context deadline.
type DeviceHungError = hetsim.DeviceHungError

// Checkpoint is a host-side snapshot of a factorization in flight, taken
// after a verified step (Config.CheckpointEvery) and resumable via
// Config.Resume — including on a system with fewer GPUs than the run that
// took it. Per block column, Data holds the finished columns (before
// NextStep) as the host-held factor has them, with nil ColChk and RowChk,
// and the columns later steps still write with their checksum strips. A
// resumed run is bit-identical to an uninterrupted run on the same final
// device set.
type Checkpoint = core.Checkpoint

// Config selects the simulated platform and the protection configuration.
// The zero value means: 1 GPU, NB=64, full checksums with the new checking
// scheme, optimized encoding kernel.
type Config struct {
	// GPUs is the number of simulated GPUs (default 1).
	GPUs int
	// NB is the block size; the matrix order must be a multiple (default 64).
	NB int
	// Protection and Scheme choose the ABFT configuration. The zero values
	// select FullChecksum + NewScheme; to run unprotected set
	// Protection: NoProtection, Scheme: core.NoCheck (or use Unprotected).
	Protection Protection
	Scheme     Scheme
	// Kernel selects the checksum-encoding kernel (default OptKernel).
	Kernel Kernel
	// Injector, when set, injects the scheduled faults.
	Injector *Injector
	// FailStop arms fail-stop/performance fault plans on the simulated
	// devices at the start of the run, keyed by device index (-1 = CPU,
	// else GPU id). A firing plan aborts the run with a typed
	// DeviceLostError/DeviceHungError.
	FailStop map[int]FailStopPlan
	// LinkFault arms communication fault plans on the simulated PCIe
	// links, keyed by GPU index (link i is the CPU<->GPUi path).
	// Transient corruption/flaps are absorbed by checksummed
	// retransmission; exhausted links abort with a typed *LinkError.
	LinkFault map[int]LinkFaultPlan
	// Nodes > 1 spreads the GPUs round-robin over that many cluster nodes
	// behind a slower inter-node interconnect (GPUs must be divisible by
	// Nodes). Multi-node runs maintain erasure-coded parity columns across
	// nodes so up to Redundancy whole-node losses are reconstructed in
	// place and the run continues degraded, bit-identical to an
	// uninterrupted run. The
	// default (0 or 1) is the flat single-box topology, bit-identical to
	// every earlier release.
	Nodes int
	// NodeFault arms whole-node loss plans, keyed by node index. Plans due
	// at the same ladder-step boundary fire together as one correlated
	// burst. Requires Nodes > 1.
	NodeFault map[int]NodeFaultPlan
	// Redundancy is the number r of erasure-coded parity columns each
	// cross-node parity group carries when Nodes > 1: the cluster absorbs
	// up to r whole-node losses — sequential or simultaneous — with
	// bit-exact reconstruction. 0 (the default) means r = 1, the classic
	// XOR parity; r must stay below Nodes (each parity group needs at
	// least one data column) or the run is rejected before it starts.
	// Ignored on flat single-box topologies, which carry no parity.
	Redundancy int
	// PeriodicTrailingCheck > 0 adds a full trailing verification every
	// k-th iteration under NewScheme (§VII.B mitigation).
	PeriodicTrailingCheck int
	// Lookahead selects the step-runtime schedule: 0 (the default) runs the
	// serial ladder; 1 enables MAGMA-style look-ahead — the CPU factorizes
	// panel k+1 while the GPUs run step k's trailing update on asynchronous
	// streams. Results are bit-identical in both schedules, and an
	// Injector's windows sit at the same logical point in both (see
	// DESIGN.md §8).
	Lookahead int
	// CheckpointEvery > 0 snapshots the factorization state into a
	// host-side Checkpoint after every k-th verified ladder step (default
	// off). Checkpoints are known-clean: an uncorrectable mid-run
	// corruption rolls back to the last one and replays instead of
	// surrendering the run, and the serving layer resumes a device-loss
	// abort from it on the surviving GPUs.
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each checkpoint as it is taken
	// (on the factorization's goroutine). Treat the value as immutable.
	OnCheckpoint func(*Checkpoint)
	// Resume, when non-nil, starts the factorization from the checkpoint
	// instead of from scratch: state is restored onto the current device
	// set and the ladder replays from Checkpoint.NextStep. The input
	// matrix must be the original A. The protection configuration must
	// match the checkpoint's.
	Resume *Checkpoint
	// RebalanceEvery arms dynamic work repartitioning: every
	// RebalanceEvery ladder steps the runtime re-splits the remaining
	// trailing block columns across the GPUs proportionally to their
	// EWMA-smoothed measured speed, migrating reassigned columns over
	// simulated PCIe with their checksum strips riding along — so a
	// straggling device sheds load instead of blowing the makespan, while
	// results stay bit-identical to the static layout (see DESIGN.md §10).
	// 0 disables rebalancing. Ignored on single-GPU systems.
	RebalanceEvery int
	// System overrides the simulated platform (worker counts, nominal
	// speeds); nil uses hetsim.DefaultConfig(GPUs).
	System *hetsim.Config

	// explicit marks configs built by Unprotected so the zero Protection/
	// Scheme pair is not upgraded to the protected defaults.
	explicit bool
}

// Unprotected returns a Config running the plain factorization.
func Unprotected(gpus int) Config {
	return Config{GPUs: gpus, Protection: NoProtection, Scheme: core.NoCheck, explicit: true}
}

func (c Config) normalize() (Config, core.Options) {
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	if c.NB <= 0 {
		c.NB = 64
	}
	if !c.explicit && c.Protection == core.NoChecksum && c.Scheme == core.NoCheck {
		c.Protection = FullChecksum
		c.Scheme = NewScheme
	}
	// Canonicalize the parity depth on cluster topologies so Effective
	// configurations compare equal whether the caller wrote the default
	// explicitly or left it zero; flat systems ignore the field entirely.
	// A negative depth is left for Validate to reject.
	if c.Nodes > 1 && c.Redundancy == 0 {
		c.Redundancy = 1
	}
	opts := core.Options{
		NB:                    c.NB,
		Mode:                  c.Protection,
		Scheme:                c.Scheme,
		Kernel:                c.Kernel,
		Injector:              c.Injector,
		FailStop:              c.FailStop,
		LinkFault:             c.LinkFault,
		NodeFault:             c.NodeFault,
		Redundancy:            c.Redundancy,
		PeriodicTrailingCheck: c.PeriodicTrailingCheck,
		Lookahead:             c.Lookahead,
		CheckpointEvery:       c.CheckpointEvery,
		OnCheckpoint:          c.OnCheckpoint,
		Resume:                c.Resume,
		RebalanceEvery:        c.RebalanceEvery,
	}
	return c, opts
}

// Effective returns the configuration with every default applied — the
// exact values a run with this Config uses (GPUs, NB, and the
// protection/scheme upgrade included). Serving layers compare Effective
// configurations to decide which queued jobs may share one batched
// dispatch; comparing raw Configs instead would either miss equivalent
// configurations (zero vs. explicit default) or wrongly conflate an
// explicit no-protection request with the default upgrade.
func (c Config) Effective() Config {
	c, _ = c.normalize()
	return c
}

// SystemConfig returns the hetsim.Config the Config selects — the platform
// that Cholesky/LU/QR would construct. It is a comparable value, which lets
// callers that pool simulated systems (internal/service) key pooled
// instances by platform.
func (c Config) SystemConfig() hetsim.Config {
	c, _ = c.normalize()
	sc := hetsim.DefaultConfig(c.GPUs)
	if c.System != nil {
		sc = *c.System
	}
	if c.Nodes > 1 {
		sc.Nodes = c.Nodes
	}
	return sc
}

// Validate reports whether a run of order n under c is rejected before it
// starts, with the error the run would return: the platform's rule first
// (GPUs divisible by Nodes), then the option rules of
// core.Options.Validate (NB divides n, a consistent Protection/Scheme
// pair, non-negative checkpoint and rebalance intervals and Redundancy,
// OnCheckpoint only with CheckpointEvery), then Redundancy below Nodes on
// a cluster. Serving layers call it to refuse a bad job at admission
// instead of failing it on a worker.
func (c Config) Validate(n int) error {
	sc, err := c.platform()
	if err != nil {
		return err
	}
	_, opts := c.normalize()
	if err := opts.Validate(n); err != nil {
		return err
	}
	return opts.ValidateTopology(sc.Nodes)
}

// platform returns the platform c selects, or the error for one that
// hetsim.New cannot build: GPUs not divisible over Nodes. Validate and
// the entry points that build their own system share it.
func (c Config) platform() (hetsim.Config, error) {
	sc := c.SystemConfig()
	if sc.Nodes > 1 && sc.NumGPUs%sc.Nodes != 0 {
		return sc, fmt.Errorf("ftla: %d GPUs not divisible over %d nodes", sc.NumGPUs, sc.Nodes)
	}
	return sc, nil
}

// NewSystem builds the simulated platform cfg selects. Most callers never
// need it — Cholesky/LU/QR build a fresh system per call — but callers that
// amortize system construction across many runs (see CholeskyBatchOn and
// internal/service) construct once here and reuse, calling System.Reset
// between runs. It panics on a platform Validate rejects.
func NewSystem(cfg Config) *hetsim.System {
	return hetsim.New(cfg.SystemConfig())
}
