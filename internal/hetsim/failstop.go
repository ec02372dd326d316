package hetsim

// Fail-stop and performance faults. The soft-error model of internal/fault
// corrupts *values* and leaves the machine running; this layer models the
// complementary failure class classic ABFT work assumes as the baseline
// threat: a device falls off the bus (crash), a kernel never returns
// (hang), or a device's throughput collapses (straggler). Faults are armed
// per device with ArmFault and fire at kernel/transfer entry; a crashed or
// hung device stays dead until Reset, which models the node being repaired
// and returned to service.
//
// Abort plumbing: kernels have no error returns (an algorithm's dataflow
// would drown in them), so a firing fault unwinds the factorization with a
// typed panic that RecoverAbort converts back into an error at the driver
// boundary — the same pattern encoding/json uses for deep abort paths.
// Bind installs the context every operation consults.

import (
	"context"
	"fmt"
	"time"
)

// FaultMode selects the fail-stop/performance fault a FaultPlan arms.
type FaultMode int

// Fail-stop fault modes.
const (
	// FaultNone arms nothing; the zero FaultPlan is inert.
	FaultNone FaultMode = iota
	// FaultCrash makes the device fail-stop: the triggering operation and
	// every subsequent Run/Transfer on the device abort with a
	// DeviceLostError.
	FaultCrash
	// FaultHang makes the triggering operation block until the system's
	// bound context (see System.Bind) is done, then abort with a
	// DeviceHungError; the device counts as lost afterwards. With no bound
	// context the hang degrades to an immediate DeviceHungError — the
	// simulator refuses to actually deadlock its host process.
	FaultHang
	// FaultStraggler keeps the device running but multiplies its simulated
	// busy time by Slowdown and stalls each operation by Stall of wall
	// time — a PCIe link gone bad or a thermally throttled GPU.
	FaultStraggler
)

// String returns "none", "crash", "hang", or "straggler".
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	default:
		return "straggler"
	}
}

// FaultPlan arms one fail-stop/performance fault on a device (see
// System.ArmFault). The zero value is inert.
type FaultPlan struct {
	// Mode selects what happens when the plan triggers.
	Mode FaultMode
	// AfterOps delays the trigger until this many kernel executions or
	// transfers have touched the device; 0 fires on the very next
	// operation. This is how a chaos harness crashes a device
	// mid-factorization deterministically.
	AfterOps int
	// Slowdown multiplies the device's simulated busy time once a
	// straggler plan has triggered (values <= 1 leave the clock alone).
	Slowdown float64
	// Stall is wall-clock time added to every operation once a straggler
	// plan has triggered. The stall is interruptible: a bound context that
	// expires mid-stall aborts the operation with the context's error.
	Stall time.Duration
}

// String describes the armed fault, e.g. "crash after 12 ops" or
// "straggler x4.0 +1ms/op".
func (p FaultPlan) String() string {
	switch p.Mode {
	case FaultNone:
		return "none"
	case FaultStraggler:
		if p.Stall == 0 {
			return fmt.Sprintf("straggler x%.1f after %d ops", p.Slowdown, p.AfterOps)
		}
		return fmt.Sprintf("straggler x%.1f +%v/op after %d ops", p.Slowdown, p.Stall, p.AfterOps)
	default:
		return fmt.Sprintf("%s after %d ops", p.Mode, p.AfterOps)
	}
}

// DeviceLostError reports a fail-stop device crash: the named device is
// gone and every further operation on it fails with this error until the
// system is Reset.
type DeviceLostError struct {
	// Device is the lost device's name ("GPU2", "N1/GPU2", "CPU").
	Device string
	// Op is the kernel or transfer that observed the loss.
	Op string
	// GPU is the structured GPU index of the lost device (-1 for the CPU):
	// the identity consumers should classify on, rather than parsing the
	// Device display name.
	GPU int
	// Node is the node the lost device lived on (0 on flat systems).
	Node int
}

// Error describes the loss.
func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("hetsim: device %s lost (op %s)", e.Device, e.Op)
}

// DeviceHungError reports an armed hang resolved by context expiry: the
// operation blocked until the bound context fired. The device counts as
// lost afterwards (a hung kernel is never coming back).
type DeviceHungError struct {
	// Device is the hung device's name; Op the operation that hung.
	Device string
	Op     string
	// GPU is the structured GPU index of the hung device (-1 for the CPU)
	// and Node the node it lived on — see DeviceLostError.
	GPU  int
	Node int
	// Cause is the bound context's error (nil when no context was bound
	// and the hang degraded to an immediate failure).
	Cause error
}

// Error describes the hang.
func (e *DeviceHungError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("hetsim: device %s hung in %s (no context bound)", e.Device, e.Op)
	}
	return fmt.Sprintf("hetsim: device %s hung in %s: %v", e.Device, e.Op, e.Cause)
}

// Unwrap exposes the context error so errors.Is(err, context.DeadlineExceeded)
// classifies a hang caught by an attempt deadline.
func (e *DeviceHungError) Unwrap() error { return e.Cause }

// abortPanic carries a typed abort error through kernel call stacks that
// have no error returns; RecoverAbort unwraps it at the driver boundary.
type abortPanic struct{ err error }

// RecoverAbort converts a recovered panic value back into the abort error
// a firing fail-stop fault (or bound-context expiry) raised inside a
// kernel or transfer. Call it on recover() in a deferred function at the
// factorization driver boundary:
//
//	defer func() {
//		if e := hetsim.RecoverAbort(recover()); e != nil {
//			err = e
//		}
//	}()
//
// A nil input returns nil; a non-abort panic value is re-raised untouched,
// so programming errors keep panicking.
func RecoverAbort(r any) error {
	if r == nil {
		return nil
	}
	if a, ok := r.(*abortPanic); ok {
		return a.err
	}
	panic(r)
}

// ArmFault arms (or, with a zero plan, disarms) a fail-stop fault plan on
// dev, which must belong to this system. Arming replaces any previous plan
// and revives a previously crashed device; Reset disarms everything.
func (s *System) ArmFault(dev *Device, plan FaultPlan) {
	if dev.sys != s {
		panic("hetsim: ArmFault on a device of a different system")
	}
	dev.fmu.Lock()
	dev.ops = 0
	dev.lost = false
	if plan.Mode == FaultNone {
		dev.plan = nil
	} else {
		p := plan
		dev.plan = &p
	}
	dev.fmu.Unlock()
}

// Bind installs the abort context every subsequent kernel and transfer
// consults: when ctx is done, the next operation on any device aborts
// promptly with ctx's error instead of running to completion (and an armed
// hang blocks on exactly this context). Bind(nil) unbinds; Reset also
// unbinds. The binding is a per-run attachment like the transfer hook.
func (s *System) Bind(ctx context.Context) {
	s.boundCtx.Store(&ctx)
}

// ctx returns the bound abort context, nil when none is bound.
func (s *System) ctx() context.Context {
	if p := s.boundCtx.Load(); p != nil {
		return *p
	}
	return nil
}

// gate is the fail-stop checkpoint every kernel and transfer passes
// through on entry: it aborts if the bound context is done, fires an armed
// fault plan whose AfterOps threshold is reached, and applies straggler
// stalls. It panics with an abortPanic; callers without error returns let
// it unwind to the driver's RecoverAbort.
func (d *Device) gate(op string) {
	ctx := d.sys.ctx()
	d.fmu.Lock()
	if d.lost {
		d.fmu.Unlock()
		panic(&abortPanic{&DeviceLostError{Device: d.Name(), Op: op, GPU: d.id, Node: d.node}})
	}
	p := d.plan
	triggered := false
	if p != nil {
		triggered = d.ops >= p.AfterOps
		d.ops++
		if triggered {
			switch p.Mode {
			case FaultCrash, FaultHang:
				// Crash now; a hang also leaves the device dead once the
				// blocked operation resolves.
				d.lost = true
			case FaultStraggler:
				d.slow = p.Slowdown
			}
		}
	}
	d.fmu.Unlock()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			panic(&abortPanic{err})
		}
	}
	if !triggered {
		return
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done() // nil for Background-like contexts: no deadline
	}
	switch p.Mode {
	case FaultCrash:
		panic(&abortPanic{&DeviceLostError{Device: d.Name(), Op: op, GPU: d.id, Node: d.node}})
	case FaultHang:
		if done == nil {
			// No deadline to rescue us; fail fast instead of deadlocking
			// the host process.
			panic(&abortPanic{&DeviceHungError{Device: d.Name(), Op: op, GPU: d.id, Node: d.node}})
		}
		<-done
		panic(&abortPanic{&DeviceHungError{Device: d.Name(), Op: op, GPU: d.id, Node: d.node, Cause: ctx.Err()}})
	case FaultStraggler:
		if p.Stall > 0 {
			if done == nil {
				time.Sleep(p.Stall)
				return
			}
			t := time.NewTimer(p.Stall)
			select {
			case <-done:
				t.Stop()
				panic(&abortPanic{ctx.Err()})
			case <-t.C:
			}
		}
	}
}

// Lost reports whether the device has fail-stopped (crashed or hung) since
// the last Reset/ArmFault.
func (d *Device) Lost() bool {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	return d.lost
}

// resetFault disarms any fault plan and revives the device.
func (d *Device) resetFault() {
	d.fmu.Lock()
	d.plan = nil
	d.ops = 0
	d.lost = false
	d.slow = 0
	d.fmu.Unlock()
}
