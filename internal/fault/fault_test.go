package fault

import (
	"math"
	"testing"
	"testing/quick"

	"ftla/internal/matrix"
)

func TestFlipBitsInvolution(t *testing.T) {
	f := func(v float64, bit uint8) bool {
		b := int(bit % 64)
		return FlipBits(FlipBits(v, b), b) == v || math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipBitsChangesValue(t *testing.T) {
	v := 3.14159
	if FlipBits(v, 51) == v {
		t.Fatal("bit flip did not change value")
	}
}

func TestCorruptSignificantAndFinite(t *testing.T) {
	rng := matrix.NewRNG(1)
	for _, v := range []float64{0, 1e-300, -1e-12, 0.5, -3.7, 1234.5, -9e5} {
		for bits := 1; bits <= 3; bits++ {
			c := Corrupt(v, bits, rng)
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("Corrupt(%g) produced non-finite %g", v, c)
			}
			if !isSignificant(v, c) {
				t.Fatalf("Corrupt(%g) = %g not significant", v, c)
			}
		}
	}
}

func TestCorruptDeterministic(t *testing.T) {
	a := Corrupt(2.5, 2, matrix.NewRNG(9))
	b := Corrupt(2.5, 2, matrix.NewRNG(9))
	if a != b {
		t.Fatal("Corrupt must be deterministic for a fixed seed")
	}
}

func TestScheduleDefaultsBits(t *testing.T) {
	in := NewInjector(1)
	in.Schedule(Spec{Kind: Computation, Op: TMU})
	in.Schedule(Spec{Kind: OffChipMemory, Op: TMU})
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.pending[0].Bits != 1 {
		t.Fatal("computation default bits should be 1")
	}
	if in.pending[1].Bits != 2 {
		t.Fatal("memory default bits should be 2 (ECC-resistant)")
	}
}

func TestBeforeOpOffChipPersists(t *testing.T) {
	in := NewInjector(2)
	in.Schedule(Spec{Kind: OffChipMemory, Op: PD, Part: ReferencePart, Iteration: 0, Row: 1, Col: 1})
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	in.InjectMem(0, PD, []Region{{Part: ReferencePart, M: m, Row0: 10, Col0: 20}})
	if m.At(1, 1) == 4 {
		t.Fatal("off-chip fault not injected")
	}
	in.InjectComp(0, PD, nil, nil)
	if m.At(1, 1) == 4 {
		t.Fatal("off-chip fault must persist after op")
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].GlobalI != 11 || evs[0].GlobalJ != 21 {
		t.Fatalf("event wrong: %v", evs)
	}
	in.InjectMem(0, PD, []Region{{Part: ReferencePart, M: matrix.FromRows([][]float64{{1, 2}, {3, 4}})}})
	if len(in.Events()) != 1 {
		t.Fatal("spec should be consumed")
	}
}

func TestOnChipRestoredAfterOp(t *testing.T) {
	in := NewInjector(3)
	in.Schedule(Spec{Kind: OnChipMemory, Op: TMU, Part: ReferencePart, Iteration: 2, Row: 0, Col: 0})
	m := matrix.FromRows([][]float64{{5}})
	in.InjectMem(2, TMU, []Region{{Part: ReferencePart, M: m}})
	if m.At(0, 0) != 5 {
		t.Fatal("InjectMem must not fire on-chip faults (invisible to memory checks)")
	}
	oc := in.InjectOnChip(2, TMU, []Region{{Part: ReferencePart, M: m}})
	if m.At(0, 0) != 5 || len(oc) != 1 || len(in.Events()) != 1 {
		t.Fatalf("on-chip window must draw one fault without storing it: m=%v flips=%d", m.At(0, 0), len(oc))
	}
	oc.Apply()
	if m.At(0, 0) == 5 {
		t.Fatal("on-chip fault not visible during op")
	}
	oc.Undo()
	if m.At(0, 0) != 5 {
		t.Fatal("on-chip fault must be restored after op (no write-back)")
	}
	// A slice applies it again: every load of the cell reads the same
	// corrupted value.
	oc.Apply()
	if m.At(0, 0) != oc[0].New {
		t.Fatal("reapplied on-chip fault reads a different value")
	}
}

// TestOnChipSurvivesOtherWindows: a computation window of another
// operation must leave an open TMU on-chip window's corruption alone (a PD
// computation window at step k+1 used to heal step k's TMU fault while its
// trailing update was still running).
func TestOnChipSurvivesOtherWindows(t *testing.T) {
	in := NewInjector(3)
	in.Schedule(Spec{Kind: OnChipMemory, Op: TMU, Part: ReferencePart, Iteration: 2, Row: 0, Col: 0})
	in.Schedule(Spec{Kind: Computation, Op: PD, Iteration: 3, Row: 0, Col: 0})
	tmu := matrix.FromRows([][]float64{{5}})
	pd := matrix.FromRows([][]float64{{7}})
	oc := in.InjectOnChip(2, TMU, []Region{{Part: ReferencePart, M: tmu}})
	oc.Apply()
	in.InjectComp(3, PD, []Region{{Part: UpdatePart, M: pd}}, nil)
	if pd.At(0, 0) == 7 {
		t.Fatal("PD computation fault not injected")
	}
	if tmu.At(0, 0) == 5 {
		t.Fatal("another window's computation fault healed the open TMU on-chip fault")
	}
}

func TestComputationInjectedAfterOp(t *testing.T) {
	in := NewInjector(4)
	in.Schedule(Spec{Kind: Computation, Op: PU, Iteration: 1, Row: 0, Col: 1})
	m := matrix.FromRows([][]float64{{1, 2}})
	in.InjectMem(1, PU, []Region{{Part: UpdatePart, M: m}})
	if m.At(0, 1) != 2 {
		t.Fatal("computation fault fired too early")
	}
	in.InjectComp(1, PU, []Region{{Part: UpdatePart, M: m}}, nil)
	if m.At(0, 1) == 2 {
		t.Fatal("computation fault not injected after op")
	}
}

// TestComputationWaitsForItsElement: a computation fault aimed at an
// element the operation has not produced yet comes back unfired and
// strikes the value the element holds once Strike runs.
func TestComputationWaitsForItsElement(t *testing.T) {
	in := NewInjector(4)
	in.Schedule(Spec{Kind: Computation, Op: TMU, Iteration: 1, Row: 0, Col: 1})
	m := matrix.FromRows([][]float64{{1, 2}})
	firstCol := func(tg Target) bool { return tg.J == 0 }
	later := in.InjectComp(1, TMU, []Region{{Part: UpdatePart, M: m}}, firstCol)
	if len(later) != 1 || m.At(0, 1) != 2 || len(in.Events()) != 0 {
		t.Fatalf("fault on an unproduced element fired early: later=%d m=%v", len(later), m.At(0, 1))
	}
	m.Set(0, 1, 9) // the operation produces the element
	in.Strike(later)
	evs := in.Events()
	if len(evs) != 1 || evs[0].Old != 9 || m.At(0, 1) != evs[0].New {
		t.Fatalf("deferred strike wrong: %v, m=%v", evs, m.At(0, 1))
	}
	if later := in.InjectComp(1, TMU, []Region{{Part: UpdatePart, M: m}}, nil); len(later) != 0 || len(in.Events()) != 1 {
		t.Fatal("spec should be consumed by the first window")
	}
}

func TestWrongIterationDoesNotFire(t *testing.T) {
	in := NewInjector(5)
	in.Schedule(Spec{Kind: OffChipMemory, Op: PD, Iteration: 3})
	m := matrix.FromRows([][]float64{{1}})
	in.InjectMem(0, PD, []Region{{Part: ReferencePart, M: m}})
	if m.At(0, 0) != 1 {
		t.Fatal("fault fired at wrong iteration")
	}
	if len(in.Events()) != 0 {
		t.Fatal("fault recorded at wrong iteration")
	}
	in.InjectMem(3, PD, []Region{{Part: ReferencePart, M: m}})
	if m.At(0, 0) == 1 || len(in.Events()) != 1 {
		t.Fatal("spec must remain pending until its iteration")
	}
}

func TestWrongOpDoesNotFire(t *testing.T) {
	in := NewInjector(6)
	in.Schedule(Spec{Kind: OffChipMemory, Op: TMU, Iteration: 0})
	m := matrix.FromRows([][]float64{{1}})
	in.InjectMem(0, PU, []Region{{Part: ReferencePart, M: m}})
	if m.At(0, 0) != 1 {
		t.Fatal("fault fired at wrong op")
	}
}

func TestOnTransferTargetsLeg(t *testing.T) {
	in := NewInjector(7)
	in.Schedule(Spec{Kind: Communication, Op: Broadcast, Iteration: 0, GPUTarget: 1, Row: 0, Col: 0})
	p0 := matrix.FromRows([][]float64{{9}})
	p1 := matrix.FromRows([][]float64{{9}})
	in.OnTransfer(0, Broadcast, 0, p0, 0, 0)
	if p0.At(0, 0) != 9 {
		t.Fatal("fault hit wrong leg")
	}
	in.OnTransfer(0, Broadcast, 1, p1, 0, 0)
	if p1.At(0, 0) == 9 {
		t.Fatal("fault did not hit targeted leg")
	}
}

func TestRandomElementSelectionInBounds(t *testing.T) {
	in := NewInjector(8)
	for k := 0; k < 50; k++ {
		in.Schedule(Spec{Kind: OffChipMemory, Op: PD, Iteration: k, Row: -1, Col: -1})
		m := matrix.NewDense(3, 4)
		in.InjectMem(k, PD, []Region{{Part: ReferencePart, M: m}})
	}
	for _, e := range in.Events() {
		if e.GlobalI < 0 || e.GlobalI >= 3 || e.GlobalJ < 0 || e.GlobalJ >= 4 {
			t.Fatalf("event out of bounds: %v", e)
		}
	}
}

func TestEmptyRegionSkipped(t *testing.T) {
	in := NewInjector(9)
	in.Schedule(Spec{Kind: OffChipMemory, Op: PD, Iteration: 0, Part: UpdatePart})
	m := matrix.NewDense(0, 0)
	in.InjectMem(0, PD, []Region{{Part: UpdatePart, M: m}})
	if len(in.Events()) != 0 {
		t.Fatal("empty region must be skipped")
	}
}

func TestStringMethods(t *testing.T) {
	if Computation.String() == "" || OnChipMemory.String() == "" {
		t.Fatal("Kind strings empty")
	}
	for _, o := range []Op{PD, PU, TMU, CTF, Broadcast} {
		if o.String() == "" {
			t.Fatal("Op string empty")
		}
	}
	if ReferencePart.String() != "ref" || UpdatePart.String() != "update" {
		t.Fatal("Part strings wrong")
	}
	ev := Event{Spec: Spec{Kind: Computation, Op: TMU}}
	if ev.String() == "" {
		t.Fatal("Event string empty")
	}
}
