package hetsim

// PCIe link faults and the reliable-transfer protocol. The fail-stop layer
// (failstop.go) models whole devices dying; this layer models the channel
// between them going bad — the communication-error window of the paper's
// §V fault model, which ABFT must survive in motion, not just at rest.
// A link here is one CPU<->GPUi PCIe path; a GPU<->GPU transfer crosses
// both endpoints' links, and a transfer between nodes also crosses the
// shared inter-node fabric. Each link and the fabric keep their own
// frontier on the logical clock (see stream.go): the host issues every
// link operation, which starts once the serial timeline and everything
// it crosses are free, so operations on disjoint links overlap.
//
// Faults are armed per link with ArmLinkFault and fire at transfer
// accounting time, inside the same critical section that bills simulated
// PCIe seconds — so a degraded link costs more time and a dropped
// transfer still pays for the wire it wasted. Reset disarms everything,
// like device fault plans.
//
// TransferReliable is the protocol the step runtime routes its data
// motion through: a Fletcher checksum over the source payload, verified
// on arrival, with capped jittered retransmission. Transient corruption
// and flaps are absorbed below the factorization; a link that exhausts
// its retry budget surfaces a typed *LinkError through the same
// panic/recover abort plumbing device faults use.

import (
	"fmt"
	"math"

	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// Reliable-transfer metrics, process-wide like the PCIe counters above.
var (
	transferRetransmits = obs.Default().Counter(obs.MetricTransferRetransmits,
		"PCIe retransmissions issued by TransferReliable after a detected drop or checksum mismatch.")
	linkFaults = obs.Default().CounterVec(obs.MetricLinkFaults,
		"Armed link faults that fired, by mode (corrupt, drop, flap, degrade).", "mode")
)

// DefaultMaxRetransmits is the retransmission budget TransferReliable uses
// when Config.MaxRetransmits is zero.
const DefaultMaxRetransmits = 3

// LinkFaultMode selects the communication fault a LinkFaultPlan arms.
type LinkFaultMode int

// Link fault modes.
const (
	// LinkNone arms nothing; the zero LinkFaultPlan is inert.
	LinkNone LinkFaultMode = iota
	// LinkCorrupt silently flips one bit of one payload element of the
	// triggering transfer (and, with Every > 0, of every Every-th transfer
	// after it). The raw Transfer delivers the damage; TransferReliable
	// detects it by checksum and retransmits.
	LinkCorrupt
	// LinkDrop makes the triggering transfer fail outright with a typed
	// *LinkError (once, or at the Every rate). The wire time is still
	// billed: a lost transfer wastes real bus time.
	LinkDrop
	// LinkFlap fails the next Count transfers on the link, then heals the
	// link (the plan clears itself) — a connector reseating itself.
	LinkFlap
	// LinkDegrade multiplies the link's bandwidth cost by Factor from the
	// trigger on (latency is unchanged). The link stays degraded until
	// Reset or re-arming.
	LinkDegrade
)

// String returns "none", "corrupt", "drop", "flap", or "degrade".
func (m LinkFaultMode) String() string {
	switch m {
	case LinkNone:
		return "none"
	case LinkCorrupt:
		return "corrupt"
	case LinkDrop:
		return "drop"
	case LinkFlap:
		return "flap"
	default:
		return "degrade"
	}
}

// LinkFaultPlan arms one communication fault on a CPU<->GPU link (see
// System.ArmLinkFault). The zero value is inert.
type LinkFaultPlan struct {
	// Mode selects what happens when the plan triggers.
	Mode LinkFaultMode
	// AfterTransfers delays the trigger until this many transfers have
	// crossed the link; 0 fires on the very next transfer — the same
	// deterministic gate FaultPlan.AfterOps gives device faults.
	AfterTransfers int
	// Every, for corrupt/drop plans, re-fires the fault on every Every-th
	// transfer after the trigger (a fixed error rate); 0 fires exactly
	// once. Retransmissions advance the same transfer counter, so a
	// retried transfer lands between firings and gets through.
	Every int
	// Count, for flap plans, is how many consecutive transfers fail
	// before the link heals; 0 means 1.
	Count int
	// Factor, for degrade plans, multiplies the link's bandwidth cost
	// (values <= 1 leave the clock alone).
	Factor float64
}

// String describes the armed fault, e.g. "corrupt after 12 transfers
// (every 8)" or "flap x3 after 0 transfers".
func (p LinkFaultPlan) String() string {
	switch p.Mode {
	case LinkNone:
		return "none"
	case LinkCorrupt, LinkDrop:
		if p.Every > 0 {
			return fmt.Sprintf("%s after %d transfers (every %d)", p.Mode, p.AfterTransfers, p.Every)
		}
		return fmt.Sprintf("%s after %d transfers", p.Mode, p.AfterTransfers)
	case LinkFlap:
		n := p.Count
		if n < 1 {
			n = 1
		}
		return fmt.Sprintf("flap x%d after %d transfers", n, p.AfterTransfers)
	default:
		return fmt.Sprintf("degrade x%.1f after %d transfers", p.Factor, p.AfterTransfers)
	}
}

// LinkError reports a transfer lost to a PCIe link fault: either a single
// dropped/failed transfer (raw Transfer path) or a link whose faults
// exhausted TransferReliable's retransmission budget. Like a device loss
// it surfaces through the abort plumbing, and the serving layer fails it
// over the same way.
type LinkError struct {
	// Link is the GPU index whose CPU<->GPU link faulted.
	Link int
	// Op is the operation that observed the fault ("pcie").
	Op string
	// Mode is the firing fault's mode.
	Mode LinkFaultMode
	// Retries is how many retransmissions were attempted before the error
	// surfaced (0 on the raw Transfer path).
	Retries int
}

// Error describes the link fault.
func (e *LinkError) Error() string {
	if e.Retries > 0 {
		return fmt.Sprintf("hetsim: link GPU%d %s fault in %s (exhausted %d retransmits)", e.Link, e.Mode, e.Op, e.Retries)
	}
	return fmt.Sprintf("hetsim: link GPU%d %s fault in %s", e.Link, e.Mode, e.Op)
}

// linkState is the per-link fault bookkeeping, guarded by System.mu (the
// verdict is computed inside the transfer-accounting critical section).
type linkState struct {
	plan     *LinkFaultPlan
	n        int     // transfers that have crossed the link since arming
	flapLeft int     // remaining failures of an active flap
	degrade  float64 // active bandwidth multiplier, 0 = none
}

// linkVerdict is what the armed link faults decided about one transfer.
type linkVerdict struct {
	drop    bool
	corrupt bool
	factor  float64       // combined bandwidth multiplier (>= 1)
	link    int           // GPU index of the first firing link, -1 if none
	mode    LinkFaultMode // firing mode, LinkNone if none fired
}

// ArmLinkFault arms (or, with a zero plan, disarms) a communication fault
// plan on GPU gpu's PCIe link. Arming replaces any previous plan and
// clears the link's transfer counter and degrade state; Reset disarms
// every link.
func (s *System) ArmLinkFault(gpu int, plan LinkFaultPlan) {
	if gpu < 0 || gpu >= len(s.gpus) {
		panic(fmt.Sprintf("hetsim: ArmLinkFault on GPU %d of a %d-GPU system", gpu, len(s.gpus)))
	}
	s.mu.Lock()
	st := &s.links[gpu]
	*st = linkState{}
	if plan.Mode != LinkNone {
		p := plan
		st.plan = &p
	}
	s.mu.Unlock()
}

// linkFaultVerdict advances the fault state of every GPU link the
// transfer crosses and merges the outcome. Caller holds s.mu.
func (s *System) linkFaultVerdict(src, dst *Device) linkVerdict {
	v := linkVerdict{factor: 1, link: -1}
	for _, d := range [2]*Device{src, dst} {
		if d.kind != GPU {
			continue
		}
		st := &s.links[d.id]
		if st.degrade > 1 {
			v.factor *= st.degrade
		}
		if st.plan == nil {
			continue
		}
		p := st.plan
		st.n++
		fired := false
		switch p.Mode {
		case LinkCorrupt, LinkDrop:
			gateAt := p.AfterTransfers + 1
			if st.n == gateAt || (p.Every > 0 && st.n > gateAt && (st.n-gateAt)%p.Every == 0) {
				fired = true
				if p.Mode == LinkCorrupt {
					v.corrupt = true
				} else {
					v.drop = true
				}
			}
		case LinkFlap:
			if st.flapLeft == 0 && st.n == p.AfterTransfers+1 {
				st.flapLeft = p.Count
				if st.flapLeft < 1 {
					st.flapLeft = 1
				}
			}
			if st.flapLeft > 0 {
				fired = true
				v.drop = true
				st.flapLeft--
				if st.flapLeft == 0 {
					st.plan = nil // healed
				}
			}
		case LinkDegrade:
			if st.n == p.AfterTransfers+1 {
				fired = true
				f := p.Factor
				if f < 1 {
					f = 1
				}
				st.degrade = f
				v.factor *= f
			}
		}
		if fired {
			linkFaults.With(p.Mode.String()).Inc()
			if v.link < 0 {
				v.link = d.id
				v.mode = p.Mode
			}
		}
	}
	return v
}

// corruptPayload flips one bit of one element of m, deterministically
// derived from seq so repeated firings damage different locations.
func corruptPayload(m *matrix.Dense, seq int) {
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	r := seq % m.Rows
	c := (seq / m.Rows) % m.Cols
	row := m.Row(r)
	row[c] = math.Float64frombits(math.Float64bits(row[c]) ^ (1 << uint(seq%52)))
}

// payloadChecksum is a Fletcher-style checksum over the payload's float64
// bit patterns, stride-aware (views alias a larger backing matrix, so the
// walk must go row by row, never over Data flat). The running second sum
// makes it position-sensitive: two swapped elements change the value,
// which a plain XOR would miss.
func payloadChecksum(m *matrix.Dense) uint64 {
	var s1, s2 uint64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			b := math.Float64bits(v)
			s1 += b
			s2 += s1
		}
	}
	return s1 ^ (s2<<1 | s2>>63)
}

// fletcher charges one checksum pass over m to the simulated clocks: two
// adds per element of busy time on dev, the device that computes it, so
// the protocol's overhead is not free; the pass is part of the link
// operation op it protects, runs on op's cursor and is traced on op's
// link track as "fletcher@<dev>".
func (s *System) fletcher(op *linkOp, dev *Device, m *matrix.Dense) {
	flops := 2 * float64(m.Rows) * float64(m.Cols)
	dur := dev.addSim(flops)
	end := op.advance(dur)
	if tr := s.Tracer(); tr != nil {
		tr.SimSpan("fletcher@"+dev.Name(), "kernel", op.track(), end, dur, map[string]float64{"flops": flops})
	}
}

// maxRetransmits resolves the configured retransmission budget.
func (s *System) maxRetransmits() int {
	if s.cfg.MaxRetransmits > 0 {
		return s.cfg.MaxRetransmits
	}
	return DefaultMaxRetransmits
}

// TransferReliable is Transfer hardened against link faults: it checksums
// the source payload, verifies the copy on arrival, and retransmits on a
// detected drop or mismatch — at most Config.MaxRetransmits times, each
// retry paying full simulated wire cost plus a jittered backoff. Both
// checksum passes add busy time to their devices. The checksum passes,
// wire attempts and backoffs form one link operation on the logical
// clock: it starts once the serial timeline and every link it crosses
// (the inter-node fabric too, between nodes) are free, runs its passes
// back to back, and holds them until it ends, on the abort path too. A
// copy into the CPU ends before the host's next operation (inside one
// Checkpoint staging, before the host's first operation after it); a copy
// into a GPU ends before the next serial kernel or stream launch, so
// copies to different GPUs overlap. With no
// link faults armed the data path is bit-identical to Transfer (the
// checksum only verifies; it never rewrites the payload). Exhausted
// retries abort with a typed *LinkError via the fail-stop panic plumbing,
// recoverable at the driver boundary with RecoverAbort.
//
// The fault-injection transfer hook runs once, after arrival
// verification, never on the individual wire attempts: the checksum
// protects the wire, while the hook's window — the paper's
// communication-error model that ABFT itself must catch — is the
// receiver's memory past the transport, so injected faults still reach
// the factorization's own verification.
func (s *System) TransferReliable(src, dst *Buffer) { s.transferReliable(src, dst, nil) }

// transferReliable is TransferReliable as one copy of a staging when
// arrival is set: a copy into the CPU then raises *arrival to its end
// instead of moving the serial frontier (see Checkpoint and commitLink).
func (s *System) transferReliable(src, dst *Buffer, arrival *float64) {
	src.dev.gate("pcie")
	dst.dev.gate("pcie")
	op := s.beginLink(src.dev, dst.dev)
	op.arrival = arrival
	defer s.commitLink(&op)
	want := payloadChecksum(src.m)
	s.fletcher(&op, src.dev, src.m)
	budget := s.maxRetransmits()
	var last *LinkError
	for attempt := 0; attempt <= budget; attempt++ {
		if attempt > 0 {
			transferRetransmits.Inc()
			s.chargeBackoff(&op, attempt)
		}
		if le := s.transferAttempt(&op, src, dst); le != nil {
			last = le
			continue // dropped on the wire: retransmit
		}
		s.fletcher(&op, dst.dev, dst.m)
		if payloadChecksum(dst.m) == want {
			s.fireHook(src, dst)
			return
		}
		// Damaged in flight. Attribute the corruption to a GPU endpoint's
		// link for the typed error (with two GPU endpoints the armed one is
		// unknowable from here; either classifies the transfer's path).
		link := dst.dev.id
		if dst.dev.kind != GPU {
			link = src.dev.id
		}
		last = &LinkError{Link: link, Op: "pcie", Mode: LinkCorrupt}
	}
	last.Retries = budget
	panic(&abortPanic{last})
}

// chargeBackoff bills the jittered retransmission delay of link operation
// op to the simulated clock and to the links it holds: exponential in the
// attempt number, base PCIe latency, with a deterministic pseudo-jitter
// (hashed from the attempt and the link's traffic count) so runs stay
// reproducible.
func (s *System) chargeBackoff(op *linkOp, attempt int) {
	lat := s.cfg.PCIeLatencyUS / 1e6
	if lat <= 0 {
		return
	}
	d := lat * float64(uint(1)<<uint(attempt-1))
	h := uint64(attempt) * 0x9e3779b97f4a7c15
	for _, dev := range [2]*Device{op.src, op.dst} {
		if dev.kind == GPU {
			s.mu.Lock()
			h ^= uint64(s.links[dev.id].n) * 0xbf58476d1ce4e5b9
			s.mu.Unlock()
		}
	}
	d *= 1 + 0.25*float64(h%1024)/1024 // jitter in [0, 25%)
	s.mu.Lock()
	s.billLinks(op.src, op.dst, d)
	s.mu.Unlock()
	op.advance(d)
	obs.ObservePhaseSeconds(obs.PhasePCIe, d)
}
