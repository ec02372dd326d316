// Package hetsim simulates a heterogeneous compute node: one CPU and a set
// of GPU devices connected by PCIe links. It substitutes for the CUDA/
// MAGMA platform of the paper (see DESIGN.md §1).
//
// The simulation is structural, not merely temporal: each device owns a
// private memory space (matrices allocated on a device can only be touched
// through that device's kernel API), data moves between devices only
// through explicit Transfer/TransferReliable calls on PCIe links, and device
// kernels really execute in parallel on a per-device goroutine worker pool.
// Fault-injection hooks are exposed at exactly the points the paper's fault
// model names: kernel outputs (computation errors), resident buffers
// (memory errors), and link transfers (communication errors).
package hetsim

import (
	"fmt"
	"sync"

	"ftla/internal/blas"
	"ftla/internal/matrix"
)

// Kind distinguishes the CPU from GPU devices.
type Kind int

// Device kinds.
const (
	CPU Kind = iota
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// Device is one compute unit of the simulated node. All kernel methods
// check buffer residency, so an algorithm that forgets a PCIe transfer
// fails loudly instead of silently reading remote memory.
type Device struct {
	kind    Kind
	id      int // 0-based among GPUs; -1 for the CPU
	node    int // node index of the topology; 0 for the CPU and flat systems
	workers int
	gflops  float64 // nominal throughput for the simulated clock

	mu      sync.Mutex
	simSecs float64 // accumulated simulated busy time
	lapSecs float64 // busy time since the last Lap
	sys     *System

	// Logical-clock state, guarded by sys.clockMu: avail is the logical
	// time the device next becomes free for a kernel; curTL is the
	// timeline of the stream whose closure is executing on the device,
	// which the closure's kernels run on (nil = the serial timeline).
	// Host operations never read curTL. See stream.go.
	avail float64
	curTL *timeline

	// Fail-stop fault state (see failstop.go), guarded by its own mutex so
	// the gate never contends with the simulated clock.
	fmu  sync.Mutex
	plan *FaultPlan
	ops  int     // operations gated since the plan was armed
	lost bool    // device has crashed or hung; all further ops abort
	slow float64 // straggler sim-time multiplier; 0 = nominal speed
}

// Kind returns the device kind.
func (d *Device) Kind() Kind { return d.kind }

// ID returns the GPU index, or -1 for the CPU.
func (d *Device) ID() int { return d.id }

// Node returns the node the device lives on (0 for the CPU, which
// coordinates from node 0, and for every device of a flat system).
func (d *Device) Node() int { return d.node }

// Name returns a human-readable device name: "CPU", "GPU2" on a flat
// single-node system, or "N1/GPU2" on a multi-node topology.
func (d *Device) Name() string {
	if d.kind == CPU {
		return "CPU"
	}
	if d.sys != nil && d.sys.cfg.nodes() > 1 {
		return fmt.Sprintf("N%d/GPU%d", d.node, d.id)
	}
	return fmt.Sprintf("GPU%d", d.id)
}

// Workers returns the size of the device's parallel worker pool.
func (d *Device) Workers() int { return d.workers }

// SimTime returns the device's accumulated simulated busy seconds.
func (d *Device) SimTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.simSecs
}

// Lap returns the device's simulated busy seconds since the previous
// Lap, or since the device was reset, and starts a new lap. A lap sums
// only its own kernels, so equal work gives equal laps bit for bit,
// whatever ran before; a difference of two SimTime readings carries the
// rounding of the running total.
func (d *Device) Lap() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	lap := d.lapSecs
	d.lapSecs = 0
	return lap
}

func (d *Device) resetSim() {
	d.mu.Lock()
	d.simSecs = 0
	d.lapSecs = 0
	d.mu.Unlock()
}

// account charges one completed kernel to the simulated clocks: busy time
// (addSim), the logical interval (advanceClock), and the system trace,
// stamped with the logical completion time.
func (d *Device) account(op string, flops float64) {
	dur := d.addSim(flops)
	end := d.advanceClock(dur)
	d.sys.trace(op, d, flops, end, dur)
}

// addSim advances the device clock by the kernel's simulated duration and
// returns that duration (zero when the device has no nominal speed). A
// triggered straggler plan multiplies the duration by its Slowdown.
func (d *Device) addSim(flops float64) float64 {
	if d.gflops <= 0 {
		return 0
	}
	secs := flops / (d.gflops * 1e9)
	d.fmu.Lock()
	if d.slow > 1 {
		secs *= d.slow
	}
	d.fmu.Unlock()
	d.mu.Lock()
	d.simSecs += secs
	d.lapSecs += secs
	d.mu.Unlock()
	return secs
}

// Buffer is a matrix resident in one device's memory.
type Buffer struct {
	dev *Device
	m   *matrix.Dense
}

// Device returns the owning device.
func (b *Buffer) Device() *Device { return b.dev }

// Rows returns the row count of the resident matrix.
func (b *Buffer) Rows() int { return b.m.Rows }

// Cols returns the column count of the resident matrix.
func (b *Buffer) Cols() int { return b.m.Cols }

// Alloc allocates a zeroed r-by-c matrix in the device's memory.
func (d *Device) Alloc(r, c int) *Buffer {
	return &Buffer{dev: d, m: matrix.NewDense(r, c)}
}

// AllocFrom allocates a device buffer initialized with a copy of m. It
// models a host-side upload for the CPU and is rejected for GPUs, which
// must receive data over PCIe.
func (d *Device) AllocFrom(m *matrix.Dense) *Buffer {
	if d.kind != CPU {
		panic("hetsim: GPU buffers must be filled via Transfer, not AllocFrom")
	}
	return &Buffer{dev: d, m: m.Clone()}
}

// Access returns the resident matrix for direct manipulation by code
// executing "on" the owning device. Callers assert which device they run
// on; a mismatch is a programming error in the algorithm's data movement
// and panics.
func (b *Buffer) Access(d *Device) *matrix.Dense {
	if b.dev != d {
		panic(fmt.Sprintf("hetsim: buffer resident on %s accessed from %s", b.dev.Name(), d.Name()))
	}
	return b.m
}

// View returns a sub-buffer aliasing a rectangular region of b.
func (b *Buffer) View(i, j, r, c int) *Buffer {
	return &Buffer{dev: b.dev, m: b.m.View(i, j, r, c)}
}

// UnsafeData exposes the resident matrix to fault injectors and test
// assertions without a residency check. Algorithm code must use Access.
func (b *Buffer) UnsafeData() *matrix.Dense { return b.m }

// --- Device kernels -------------------------------------------------------
//
// Each kernel validates residency of every operand, runs the parallel BLAS
// on the device's worker pool, advances the simulated clock by the kernel's
// flop count, and reports the operation to the system trace.

// Gemm computes C = alpha·op(A)·op(B) + beta·C on the device.
func (d *Device) Gemm(transA, transB bool, alpha float64, a, b *Buffer, beta float64, c *Buffer) {
	d.gate("gemm")
	am, bm, cm := a.Access(d), b.Access(d), c.Access(d)
	k := am.Cols
	if transA {
		k = am.Rows
	}
	blas.GemmP(d.workers, transA, transB, alpha, am, bm, beta, cm)
	flops := 2 * float64(cm.Rows) * float64(cm.Cols) * float64(k)
	d.account("gemm", flops)
}

// Trsm solves a triangular system with multiple right-hand sides on the
// device (see blas.Trsm).
func (d *Device) Trsm(side blas.Side, lower, trans, unit bool, alpha float64, a, b *Buffer) {
	d.gate("trsm")
	am, bm := a.Access(d), b.Access(d)
	blas.TrsmP(d.workers, side, lower, trans, unit, alpha, am, bm)
	flops := float64(am.Rows) * float64(am.Rows) * float64(bm.Rows*bm.Cols) / float64(am.Rows)
	d.account("trsm", flops)
}

// Run executes an arbitrary kernel body on the device, charging the given
// flop count to the simulated clock. The body receives the device's worker
// count so it can parallelize. It is the escape hatch for panel kernels
// (POTF2/GETF2/GEQR2) and checksum kernels. Like every kernel it passes
// the fail-stop gate: on a crashed device, or under a done bound context
// (see System.Bind), it aborts with a typed panic recoverable via
// RecoverAbort.
func (d *Device) Run(name string, flops float64, body func(workers int)) {
	d.gate(name)
	body(d.workers)
	d.account(name, flops)
}
