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
// A Config selects the platform and the protection of a run; it is
// core.Options, whose fields carry the documentation. Its zero value is
// the paper's configuration: full checksums under the new checking scheme
// with the optimized encoding kernel, on 1 GPU with NB=64. Unprotected(g)
// is the plain factorization the ABFT overhead is measured against.
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
	// FullChecksum maintains checksums in both dimensions on the trailing
	// matrix — the paper's contribution (§IV) and the zero value.
	FullChecksum = core.Full
	// SingleSide maintains checksums in one dimension, as in prior work.
	SingleSide = core.SingleSide
	// NoProtection runs the plain factorization (the overhead baseline);
	// it takes Scheme NoCheck.
	NoProtection = core.NoChecksum
)

// Scheme selects when verification happens.
type Scheme = core.Scheme

// Checking schemes.
const (
	// NewScheme is the paper's prioritized checking scheme (Algorithm 2),
	// including post-broadcast verification that protects PCIe, and the
	// zero value.
	NewScheme = core.NewScheme
	// PriorOp verifies operation inputs before each operation.
	PriorOp = core.PriorOp
	// PostOp verifies operation outputs after each operation.
	PostOp = core.PostOp
	// NoCheck verifies nothing; it is the scheme of NoProtection and is
	// refused with any other protection.
	NoCheck = core.NoCheck
)

// Kernel selects the checksum-encoding kernel (§VIII).
type Kernel = checksum.Kernel

// Checksum-encoding kernels.
const (
	// OptKernel is the paper's optimized dedicated encoding kernel and the
	// zero value.
	OptKernel = checksum.OptKernel
	// GEMMKernel is the general-matrix-multiply baseline of prior work.
	GEMMKernel = checksum.GEMMKernel
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

// Config selects the simulated platform and the protection configuration;
// see the fields of core.Options. The zero value is the paper's
// configuration: 1 GPU, NB=64, full checksums under the new checking
// scheme, and the optimized encoding kernel. Its Validate method is the
// admission rule a run applies, Effective and SystemConfig give the
// defaults and platform a run uses, and ValidateBatch names the per-run
// options a batch of two or more matrices cannot share.
type Config = core.Options

// Unprotected returns a Config running the plain factorization.
func Unprotected(gpus int) Config {
	return Config{GPUs: gpus, Protection: NoProtection, Scheme: NoCheck}
}

// newSystem builds a fresh system of the platform cfg selects, or returns
// the error for one hetsim.New cannot build.
func newSystem(cfg Config) (*hetsim.System, error) {
	sc := cfg.SystemConfig()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return hetsim.New(sc), nil
}

// NewSystem builds the simulated platform cfg selects. Most callers never
// need it — Cholesky/LU/QR build a fresh system per call — but callers that
// amortize system construction across many runs (see CholeskyBatchOn and
// internal/service) construct once here and reuse, calling System.Reset
// between runs. It panics on a platform Validate rejects.
func NewSystem(cfg Config) *hetsim.System {
	return hetsim.New(cfg.SystemConfig())
}
