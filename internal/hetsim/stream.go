package hetsim

// Asynchronous execution streams and the logical simulated clock.
//
// The synchronous API (Device.Run, System.TransferReliable, ...) executes
// and *completes* an operation before returning, which forces the caller
// into a fully serial schedule. Streams are the asynchronous surface the
// look-ahead step runtime is built on: an ordered per-device work queue in
// the style of a CUDA stream. Launch enqueues a closure, Record returns a
// StreamEvent marking everything enqueued so far, and StreamEvent.Wait
// joins the host with that point of the stream. Operations within one
// stream execute (and advance the simulated clock) in launch order;
// operations in different streams run concurrently, on real goroutines,
// against device-private buffers.
//
// Logical clock. Wall-clock concurrency alone would make the simulated
// clock meaningless, so the simulator keeps a discrete-event logical clock
// next to the busy-time counters. A timeline is a completion frontier that
// encodes ordering: the shared *serial* timeline carries every host
// operation, and each stream carries its own, inheriting the serial
// frontier at Launch time (work launched after X cannot logically start
// before X) and folding back into it at Wait time. The rule for picking a
// timeline is fixed by who issues the operation, never by what else is
// running at that wall-clock instant:
//   - a kernel launched from a stream closure runs on that stream's
//     timeline; every other kernel runs on the serial timeline. A kernel
//     starts at max(its device's availability, its timeline's frontier)
//     and occupies the device until it ends (advanceClock);
//   - a transfer is a host operation, but each GPU's PCIe link keeps a
//     frontier of its own. CPU<->GPUi crosses link i and GPUi<->GPUj
//     crosses links i and j; a transfer between nodes also crosses the
//     one shared inter-node fabric, which keeps a frontier too. A
//     transfer starts at the latest of the serial frontier and the
//     frontiers of what it crosses, and TransferReliable's Fletcher
//     passes, wire attempts and backoffs run back to back from there as
//     one link operation (linkOp), which commits its end to what it
//     crosses when it finishes or aborts;
//   - a copy into the CPU is synchronous: the serial frontier moves to its
//     end. The one exception is a Checkpoint staging, whose copies the
//     host reads only after issuing them all: they hold their links but
//     leave the serial frontier alone, so pulls from different GPUs
//     overlap, and the frontier joins once, at the latest arrival, when
//     the staging ends. A copy into a GPU only raises the system-wide
//     pending arrival frontier, so copies to different GPUs overlap. The
//     next serial GPU kernel starts no earlier than pending, and Launch
//     folds pending into the stream's timeline too. A CPU kernel does not
//     wait for it: such a copy writes only GPU memory, which no CPU kernel
//     reads, so the host computes while its copies into the GPUs are in
//     flight.
//
// A program that never touches streams therefore gets the serial schedule
// (the depth-0 special case): kernels run one after another, and only
// copies to different GPUs, or from different GPUs within one staging,
// overlap, with each other and with CPU kernels issued after copies into
// GPUs. Every start is a function of issue order alone, so a
// look-ahead run assigns every operation the same interval on every run.
// TimelineMakespan is the resulting end-to-end finish time; under overlap
// it is smaller than the serial sum.
//
// Abort plumbing. A fail-stop fault firing inside a launched closure is
// captured by the stream executor; the stream skips the remainder of its
// queue and the capturing panic is re-raised from StreamEvent.Wait on the
// waiting (host) goroutine, where the driver-boundary RecoverAbort
// converts it to the typed error exactly as in the serial schedule.

import "strconv"

// timeline is a completion frontier of the logical simulated clock: the
// logical time at which everything ordered on it so far has finished.
// Guarded by System.clockMu.
type timeline struct {
	floor float64
}

// streamOp is one queue entry: a named closure, or (fn == nil) an event
// marker.
type streamOp struct {
	name string
	fn   func()
	ev   *StreamEvent
}

// Stream is an ordered asynchronous execution queue on one device, the
// simulator's analogue of a CUDA stream. Closures enqueued with Launch run
// in order on a dedicated executor goroutine; Record/Wait provide the
// host-side join. A device may serve at most one open stream at a time,
// and the host must not call the device's synchronous kernels while the
// stream has unjoined work — the step runtime enforces both by
// construction. Streams must be Closed when done (the step runtime defers
// this), or their executor goroutine leaks.
type Stream struct {
	dev *Device
	tl  timeline
	ch  chan streamOp
	dne chan struct{}

	// abort is the first captured fail-stop abort; executor-goroutine
	// local until published through a StreamEvent.
	abort *abortPanic
}

// NewStream opens an asynchronous execution stream on the device.
func (d *Device) NewStream() *Stream {
	st := &Stream{dev: d, ch: make(chan streamOp, 64), dne: make(chan struct{})}
	go st.run()
	return st
}

// Launch enqueues a closure for asynchronous execution on the stream's
// device. The closure runs kernels only, exactly as synchronous code would;
// a transfer is a host operation and is never issued from a closure. The
// stream orders the closure after everything previously launched, after
// every synchronous operation already completed by the host, and after
// every copy into a GPU already issued (the launch-order dependency of a
// CUDA stream). A closure must only touch buffers resident on the
// stream's device, and the host must not read or write those buffers
// until a later StreamEvent.Wait. name labels the enqueue for debugging;
// the kernels the closure runs trace under their own names.
func (st *Stream) Launch(name string, fn func()) {
	s := st.dev.sys
	s.clockMu.Lock()
	st.tl.floor = max(st.tl.floor, s.serial.floor, s.pending)
	s.clockMu.Unlock()
	st.ch <- streamOp{name: name, fn: fn}
}

// Record enqueues an event marker and returns its StreamEvent: a handle
// that completes once everything launched before it has executed.
func (st *Stream) Record() *StreamEvent {
	ev := &StreamEvent{st: st, done: make(chan struct{})}
	st.ch <- streamOp{ev: ev}
	return ev
}

// Close shuts the stream down after the queue drains and releases its
// executor goroutine. Launch/Record must not be called afterwards. Close
// does not re-raise captured aborts — join with a recorded event first;
// Close exists so a deferred cleanup can never panic.
func (st *Stream) Close() {
	close(st.ch)
	<-st.dne
}

// run is the stream executor: one goroutine draining the queue in order.
func (st *Stream) run() {
	defer close(st.dne)
	d := st.dev
	s := d.sys
	for op := range st.ch {
		if op.ev != nil {
			s.clockMu.Lock()
			op.ev.at = st.tl.floor
			s.clockMu.Unlock()
			op.ev.pan = st.abort
			close(op.ev.done)
			continue
		}
		if st.abort != nil {
			// A fail-stop abort poisons the stream: skip the remaining
			// queue (mirroring how a serial schedule would never reach
			// these operations) and keep draining so Close can't block.
			continue
		}
		st.exec(op)
	}
}

// exec runs one closure on the stream's timeline, capturing fail-stop
// aborts. Non-abort panics are programming errors and propagate, crashing
// the executor goroutine loudly.
func (st *Stream) exec(op streamOp) {
	d := st.dev
	s := d.sys
	s.clockMu.Lock()
	d.curTL = &st.tl
	s.clockMu.Unlock()
	defer func() {
		s.clockMu.Lock()
		d.curTL = nil
		s.clockMu.Unlock()
		if r := recover(); r != nil {
			if a, ok := r.(*abortPanic); ok {
				st.abort = a
				return
			}
			panic(r)
		}
	}()
	op.fn()
}

// StreamEvent marks a point in a stream's execution order. It is complete
// once every operation launched before the matching Record has executed.
type StreamEvent struct {
	st   *Stream
	done chan struct{}
	at   float64     // stream timeline frontier at the marker
	pan  *abortPanic // captured fail-stop abort, re-raised by Wait
}

// Wait blocks until the event completes, then joins the host's serial
// timeline with the stream (the host has logically observed everything up
// to the marker, so no later synchronous operation may start before it).
// If a fail-stop fault aborted a launched closure, Wait re-raises the
// abort on the calling goroutine, where the driver-boundary RecoverAbort
// handles it exactly as for a synchronous kernel.
func (ev *StreamEvent) Wait() {
	<-ev.done
	s := ev.st.dev.sys
	s.clockMu.Lock()
	if ev.at > s.serial.floor {
		s.serial.floor = ev.at
	}
	s.clockMu.Unlock()
	if ev.pan != nil {
		panic(ev.pan)
	}
}

// advanceClock assigns the logical interval of a kernel of the given
// duration on device d and returns its end: it starts no earlier than the
// device's availability and the frontier of the timeline it is ordered on
// (the stream executing on d for a kernel launched from that stream's
// closure, else the serial timeline, where a GPU kernel also waits for
// every copy into a GPU issued so far; a CPU kernel reads no GPU memory
// and does not), occupies the device until end, and advances that
// frontier.
func (d *Device) advanceClock(dur float64) float64 {
	s := d.sys
	s.clockMu.Lock()
	tl, start := d.curTL, d.avail
	if tl == nil {
		tl = &s.serial
		if d.kind == GPU {
			start = max(start, s.pending)
		}
	}
	end := max(start, tl.floor) + dur
	d.avail = end
	tl.floor = end
	s.clockMu.Unlock()
	return end
}

// linkOp is one link operation on the logical clock: a transfer's
// Fletcher passes, wire attempts and backoffs, run back to back on a
// local cursor. It starts at the latest of the serial frontier, the
// frontier of every GPU link it crosses and, between nodes, the fabric
// frontier; commitLink publishes its end.
type linkOp struct {
	src, dst *Device
	fabric   bool    // crosses the inter-node fabric
	at       float64 // the cursor: logical end of the operation so far
	// arrival, set on a copy into the CPU inside a Checkpoint staging, is
	// the staging's latest arrival, which commitLink raises in place of
	// the serial frontier.
	arrival *float64
}

// beginLink opens a link operation from src to dst.
func (s *System) beginLink(src, dst *Device) linkOp {
	op := linkOp{src: src, dst: dst, fabric: s.cfg.nodes() > 1 && src.node != dst.node}
	s.clockMu.Lock()
	op.at = s.serial.floor
	if op.fabric {
		op.at = max(op.at, s.fabricFree)
	}
	for _, d := range [2]*Device{src, dst} {
		if d.kind == GPU {
			op.at = max(op.at, s.linkFree[d.id])
		}
	}
	s.clockMu.Unlock()
	return op
}

// advance orders a pass of the given duration after everything op has run
// so far and returns its logical end.
func (op *linkOp) advance(dur float64) float64 {
	op.at += dur
	return op.at
}

// track names the trace track op's spans go on: the link of its first GPU
// endpoint. op holds that link from start to end, so the spans on one
// track never overlap.
func (op *linkOp) track() string {
	d := op.src
	if d.kind != GPU {
		d = op.dst
	}
	return "PCIe" + strconv.Itoa(d.id)
}

// commitLink ends a link operation: its links (and the fabric, between
// nodes) are busy until its end. A copy into the CPU is synchronous and
// moves the serial frontier there (the host waits for it), except inside
// a Checkpoint staging, where it raises the staging's arrival instead and
// the serial frontier joins once when the staging ends. A copy into a GPU
// only raises the pending arrival frontier the next serial GPU kernel and
// the next Launch wait for; CPU kernels do not.
func (s *System) commitLink(op *linkOp) {
	s.clockMu.Lock()
	for _, d := range [2]*Device{op.src, op.dst} {
		if d.kind == GPU {
			s.linkFree[d.id] = max(s.linkFree[d.id], op.at)
		}
	}
	if op.fabric {
		s.fabricFree = max(s.fabricFree, op.at)
	}
	switch {
	case op.arrival != nil:
		*op.arrival = max(*op.arrival, op.at)
	case op.dst.kind == CPU:
		s.serial.floor = max(s.serial.floor, op.at)
	default:
		s.pending = max(s.pending, op.at)
	}
	s.clockMu.Unlock()
}

// TimelineMakespan returns the end-to-end finish time of the run on the
// logical simulated clock: the latest completion frontier across the
// serial timeline, the pending copies into GPUs, every link and every
// device. For a fully synchronous program on one GPU this equals the
// serial sum of all operation durations; parallel links and stream
// overlap make it smaller — the schedule's true makespan.
func (s *System) TimelineMakespan() float64 {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	m := max(s.serial.floor, s.pending, s.cpu.avail)
	for _, g := range s.gpus {
		m = max(m, g.avail)
	}
	for _, f := range s.linkFree {
		m = max(m, f)
	}
	return m
}

// resetClock zeroes the logical clock: timeline, link, fabric and
// arrival frontiers and device availability. Called from Reset under no
// other lock.
func (s *System) resetClock() {
	s.clockMu.Lock()
	s.serial.floor = 0
	s.pending = 0
	s.fabricFree = 0
	clear(s.linkFree)
	s.cpu.avail = 0
	s.cpu.curTL = nil
	for _, g := range s.gpus {
		g.avail = 0
		g.curTL = nil
	}
	s.clockMu.Unlock()
}
