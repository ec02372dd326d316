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
// next to the busy-time counters: every operation is assigned a logical
// [start, end] interval where start = max(availability of the resources it
// occupies, the completion frontier of the timeline it is ordered on).
// Resources are the devices (one op at a time) and the per-GPU PCIe links;
// timelines are the completion frontiers that encode ordering: every
// synchronous call is ordered on the shared *serial* timeline (so a
// program that never touches streams gets the fully serialized schedule it
// always had — the depth-0 special case), while each stream carries its
// own timeline, inheriting the serial frontier at Launch time (work
// launched after X cannot logically start before X) and folding back into
// it at Wait time. callerTimeline is the one place an operation's
// timeline is picked, for kernels, transfers and retransmission backoff
// alike. TimelineMakespan is the resulting end-to-end finish time; under
// overlap it is strictly smaller than the serial sum.
//
// Abort plumbing. A fail-stop fault firing inside a launched closure is
// captured by the stream executor; the stream skips the remainder of its
// queue and the capturing panic is re-raised from StreamEvent.Wait on the
// waiting (host) goroutine, where the driver-boundary RecoverAbort
// converts it to the typed error exactly as in the serial schedule.

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

// Device returns the device the stream executes on.
func (st *Stream) Device() *Device { return st.dev }

// Launch enqueues a closure for asynchronous execution on the stream's
// device. The closure runs kernel/transfer calls exactly as synchronous
// code would; the stream orders it after everything previously launched
// and after every synchronous operation already completed by the host
// (the launch-order dependency of a CUDA stream). A closure must only
// touch buffers resident on the stream's device (plus transfer endpoints),
// and the host must not read or write those buffers until a later
// StreamEvent.Wait. name labels the enqueue for debugging; the kernels the
// closure runs trace under their own names.
func (st *Stream) Launch(name string, fn func()) {
	s := st.dev.sys
	s.clockMu.Lock()
	if s.serial.floor > st.tl.floor {
		st.tl.floor = s.serial.floor
	}
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

// Sync records an event and waits for it: a host join with everything
// launched so far. Like Wait, it re-raises a captured fail-stop abort.
func (st *Stream) Sync() {
	st.Record().Wait()
}

// Close shuts the stream down after the queue drains and releases its
// executor goroutine. Launch/Record must not be called afterwards. Close
// does not re-raise captured aborts — join with Sync (or a recorded
// event) first; Close exists so a deferred cleanup can never panic.
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

// At returns the logical simulated time of the marker: the stream
// timeline's completion frontier when the event was reached. Valid only
// after Wait.
func (ev *StreamEvent) At() float64 { return ev.at }

// callerTimeline picks the timeline an operation on devs is ordered on:
// the stream executing on the first of them that has one (a transfer
// launched from a stream closure runs on the closure's device), else the
// serial timeline that every synchronous call shares. Caller holds
// s.clockMu.
func (s *System) callerTimeline(devs ...*Device) *timeline {
	for _, d := range devs {
		if d.curTL != nil {
			return d.curTL
		}
	}
	return &s.serial
}

// advanceClock assigns the logical [start, end] interval of an operation
// of the given duration on device d: it starts no earlier than the
// device's availability and the frontier of the timeline the caller is
// ordered on (the executing stream's, or the serial timeline for
// synchronous calls), occupies the device until end, and advances the
// timeline frontier.
func (d *Device) advanceClock(dur float64) (start, end float64) {
	s := d.sys
	s.clockMu.Lock()
	tl := s.callerTimeline(d)
	start = d.avail
	if tl.floor > start {
		start = tl.floor
	}
	end = start + dur
	d.avail = end
	tl.floor = end
	s.clockMu.Unlock()
	return start, end
}

// TimelineMakespan returns the end-to-end finish time of the run on the
// logical simulated clock: the latest completion frontier across the
// serial timeline, every device, and every PCIe link. For a fully
// synchronous program this equals the serial sum of all operation
// durations; with stream overlap it is smaller — the schedule's true
// makespan.
func (s *System) TimelineMakespan() float64 {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	m := s.serial.floor
	if s.cpu.avail > m {
		m = s.cpu.avail
	}
	for _, g := range s.gpus {
		if g.avail > m {
			m = g.avail
		}
	}
	for _, l := range s.linkAvail {
		if l > m {
			m = l
		}
	}
	return m
}

// resetClock zeroes the logical clock: timeline frontiers, device
// availability, and link availability. Called from Reset under no other
// lock.
func (s *System) resetClock() {
	s.clockMu.Lock()
	s.serial.floor = 0
	s.cpu.avail = 0
	s.cpu.curTL = nil
	for _, g := range s.gpus {
		g.avail = 0
		g.curTL = nil
	}
	for i := range s.linkAvail {
		s.linkAvail[i] = 0
	}
	s.clockMu.Unlock()
}
