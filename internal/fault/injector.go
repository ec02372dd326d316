package fault

import (
	"sync"

	"ftla/internal/matrix"
)

// Region describes a rectangular piece of the factorization state exposed
// to the injector at an injection point: a live view into device memory
// plus the global coordinates of its top-left corner (for reporting).
type Region struct {
	Part Part
	M    *matrix.Dense
	Row0 int
	Col0 int
}

// Injector schedules Specs and applies them at the timing hooks the
// protected factorizations call. It is safe for concurrent use by device
// goroutines.
type Injector struct {
	mu      sync.Mutex
	rng     *matrix.RNG
	pending []Spec
	events  []Event
}

// NewInjector builds an injector with a deterministic RNG seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: matrix.NewRNG(seed)}
}

// Schedule queues a fault for injection.
func (in *Injector) Schedule(s Spec) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if s.Bits == 0 {
		if s.Kind == Computation {
			s.Bits = 1
		} else {
			s.Bits = 2
		}
	}
	in.pending = append(in.pending, s)
}

// Events returns the faults injected so far.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// take removes and returns all pending specs matching the predicate.
func (in *Injector) take(match func(Spec) bool) []Spec {
	var hit []Spec
	rest := in.pending[:0]
	for _, s := range in.pending {
		if match(s) {
			hit = append(hit, s)
		} else {
			rest = append(rest, s)
		}
	}
	in.pending = rest
	return hit
}

// Target is the element one fault strikes: element (I, J) of its region's
// view.
type Target struct {
	Spec   Spec
	Region Region
	I, J   int
}

// aim picks the element of r that s strikes.
func (in *Injector) aim(s Spec, r Region) Target {
	i, j := s.Row, s.Col
	if i < 0 || i >= r.M.Rows {
		i = in.rng.Intn(r.M.Rows)
	}
	if j < 0 || j >= r.M.Cols {
		j = in.rng.Intn(r.M.Cols)
	}
	return Target{Spec: s, Region: r, I: i, J: j}
}

// draw corrupts t's element as it stands now, records the event, and
// returns it; the caller decides whether the corruption is stored.
func (in *Injector) draw(t Target) Event {
	old := t.Region.M.At(t.I, t.J)
	ev := Event{Spec: t.Spec, GlobalI: t.Region.Row0 + t.I, GlobalJ: t.Region.Col0 + t.J,
		Old: old, New: Corrupt(old, t.Spec.Bits, in.rng)}
	in.events = append(in.events, ev)
	return ev
}

// strike stores t's corruption.
func (in *Injector) strike(t Target) {
	t.Region.M.Set(t.I, t.J, in.draw(t).New)
}

func pickRegion(regs []Region, p Part, refIndex int) (Region, bool) {
	seen := 0
	for _, r := range regs {
		if r.Part == p && r.M.Rows > 0 && r.M.Cols > 0 {
			if seen == refIndex {
				return r, true
			}
			seen++
		}
	}
	return Region{}, false
}

// InjectMem fires the off-chip (DRAM) faults aimed at (it, op). It is
// called BEFORE any pre-operation verification: a DRAM fault corrupts the
// stored matrix, so a memory-verifying check can observe it (§X.A timing
// rule 2).
func (in *Injector) InjectMem(it int, op Op, regs []Region) {
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := in.take(func(s Spec) bool {
		return s.Iteration == it && s.Op == op && s.Kind == OffChipMemory
	})
	for _, s := range specs {
		if r, ok := pickRegion(regs, s.Part, s.RefIndex); ok {
			in.strike(in.aim(s, r))
		}
	}
}

// Flip is one on-chip fault's transient corruption: while an operation
// loads the targeted element it reads New, although the memory cell holds
// Old.
type Flip struct {
	Target
	Old, New float64
}

// OnChip is the transient corruption one on-chip window drew. The
// operation that loads the targeted elements applies it right before its
// data kernel and undoes it right after, before its checksum-maintenance
// kernels load the same cells independently (§V: the memory cell itself
// was never wrong). Operations split into slices apply, to each slice,
// the flips that slice loads.
type OnChip []Flip

// Apply makes the targeted elements read their corrupted values.
func (oc OnChip) Apply() {
	for _, f := range oc {
		f.Region.M.Set(f.I, f.J, f.New)
	}
}

// Undo restores the targeted elements to the values the window found.
func (oc OnChip) Undo() {
	for _, f := range oc {
		f.Region.M.Set(f.I, f.J, f.Old)
	}
}

// InjectOnChip draws the on-chip memory faults aimed at (it, op) and
// returns them unapplied. It is called AFTER pre-operation verification
// and before the computation: an on-chip fault corrupts only the cached
// copy the operation consumes and is invisible to a memory check (§X.A
// timing rule 3). The draw happens here, in issue order, whichever
// schedule later runs the operation.
func (in *Injector) InjectOnChip(it int, op Op, regs []Region) OnChip {
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := in.take(func(s Spec) bool {
		return s.Iteration == it && s.Op == op && s.Kind == OnChipMemory
	})
	var oc OnChip
	for _, s := range specs {
		if r, ok := pickRegion(regs, s.Part, s.RefIndex); ok {
			t := in.aim(s, r)
			ev := in.draw(t)
			oc = append(oc, Flip{Target: t, Old: ev.Old, New: ev.New})
		}
	}
	return oc
}

// InjectComp fires the computation faults aimed at (it, op) on the freshly
// produced update part (§X.A timing rule 1). ready, when non-nil, reports
// whether an aimed element has been produced yet: the faults whose element
// has not are returned unfired, for Strike once it has.
func (in *Injector) InjectComp(it int, op Op, regs []Region, ready func(Target) bool) []Target {
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := in.take(func(s Spec) bool {
		return s.Iteration == it && s.Op == op && s.Kind == Computation
	})
	var later []Target
	for _, s := range specs {
		r, ok := pickRegion(regs, UpdatePart, 0)
		if !ok {
			continue
		}
		if t := in.aim(s, r); ready == nil || ready(t) {
			in.strike(t)
		} else {
			later = append(later, t)
		}
	}
	return later
}

// Strike fires computation faults InjectComp returned unfired, on their
// elements as they stand now.
func (in *Injector) Strike(ts []Target) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, t := range ts {
		in.strike(t)
	}
}

// OnTransfer fires a communication fault on a broadcast leg: it is called
// by the PCIe transfer hook with the received payload and the destination
// GPU id, within the context of iteration it following operation op.
func (in *Injector) OnTransfer(it int, op Op, destGPU int, payload *matrix.Dense, row0, col0 int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := in.take(func(s Spec) bool {
		target := s.GPUTarget
		if target < 0 {
			target = 0
		}
		return s.Iteration == it && s.Kind == Communication && s.Op == op && target == destGPU
	})
	for _, s := range specs {
		in.strike(in.aim(s, Region{Part: UpdatePart, M: payload, Row0: row0, Col0: col0}))
	}
}
