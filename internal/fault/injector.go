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
	// on-chip restoration state: element to restore after the op.
	restore []func()
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

// corruptRegion flips an element of the region chosen by s and returns the
// event plus an undo closure.
func (in *Injector) corruptRegion(s Spec, r Region) (Event, func()) {
	i, j := s.Row, s.Col
	if i < 0 || i >= r.M.Rows {
		i = in.rng.Intn(r.M.Rows)
	}
	if j < 0 || j >= r.M.Cols {
		j = in.rng.Intn(r.M.Cols)
	}
	old := r.M.At(i, j)
	corrupted := Corrupt(old, s.Bits, in.rng)
	r.M.Set(i, j, corrupted)
	ev := Event{Spec: s, GlobalI: r.Row0 + i, GlobalJ: r.Col0 + j, Old: old, New: corrupted}
	m, ii, jj := r.M, i, j
	return ev, func() { m.Set(ii, jj, old) }
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
		r, ok := pickRegion(regs, s.Part, s.RefIndex)
		if !ok {
			continue
		}
		ev, _ := in.corruptRegion(s, r)
		in.events = append(in.events, ev)
	}
}

// InjectOnChip fires the on-chip memory faults aimed at (it, op). It is
// called AFTER pre-operation verification and before the computation: an
// on-chip fault corrupts only the cached copy the operation consumes, is
// invisible to a memory check, and is undone by InjectComp (no
// write-back; §X.A timing rule 3).
func (in *Injector) InjectOnChip(it int, op Op, regs []Region) {
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := in.take(func(s Spec) bool {
		return s.Iteration == it && s.Op == op && s.Kind == OnChipMemory
	})
	for _, s := range specs {
		r, ok := pickRegion(regs, s.Part, s.RefIndex)
		if !ok {
			continue
		}
		ev, undo := in.corruptRegion(s, r)
		in.events = append(in.events, ev)
		in.restore = append(in.restore, undo)
	}
}

// RestoreOnChip undoes all pending on-chip corruption. The protected
// factorizations call it between an operation's data kernel and its
// checksum-maintenance kernels: an on-chip fault corrupts one transient
// read, so the two kernels' independent loads of the same cell do not see
// the same corruption (§V; the memory cell itself was never wrong).
func (in *Injector) RestoreOnChip() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, undo := range in.restore {
		undo()
	}
	in.restore = in.restore[:0]
}

// InjectComp fires the computation faults aimed at (it, op) on the freshly
// produced update part, and restores any on-chip corruption from
// InjectOnChip (§X.A timing rules 1 and 3).
func (in *Injector) InjectComp(it int, op Op, regs []Region) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, undo := range in.restore {
		undo()
	}
	in.restore = in.restore[:0]
	specs := in.take(func(s Spec) bool {
		return s.Iteration == it && s.Op == op && s.Kind == Computation
	})
	for _, s := range specs {
		r, ok := pickRegion(regs, UpdatePart, 0)
		if !ok {
			continue
		}
		ev, _ := in.corruptRegion(s, r)
		in.events = append(in.events, ev)
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
		ev, _ := in.corruptRegion(s, Region{Part: UpdatePart, M: payload, Row0: row0, Col0: col0})
		in.events = append(in.events, ev)
	}
}
