// Package fault implements the paper's fault model (§V) and source-level
// injection methodology (§X.A): computation errors, off-chip (DRAM) memory
// errors, on-chip memory errors, and PCIe communication errors, injected
// as bit flips at precisely the timing windows the paper prescribes —
// after an operation's output is produced (computation), before an
// operation consumes its inputs (off-chip memory), before an operation
// with restoration afterwards (on-chip memory: the cached copy was wrong,
// the memory cell is clean), and on a transfer's received payload
// (communication).
package fault

import (
	"fmt"
	"math"

	"ftla/internal/matrix"
)

// Kind is the fault type of §V.
type Kind int

// Fault kinds.
const (
	// Computation: a logic fault flips a bit of one freshly computed
	// output element.
	Computation Kind = iota
	// OffChipMemory: a multi-bit DRAM fault corrupts a stored element; the
	// corruption is visible in memory.
	OffChipMemory
	// OnChipMemory: a cache/register/shared-memory fault corrupts the
	// value an operation consumes, but the backing memory cell stays
	// clean (no write-back), so the initial corruption is unobservable.
	OnChipMemory
	// Communication: a PCIe fault corrupts an element of a transferred
	// panel on the receiver side.
	Communication
)

// String returns the fault kind's short name: "computation",
// "off-chip-mem", "on-chip-mem", or "communication".
func (k Kind) String() string {
	switch k {
	case Computation:
		return "computation"
	case OffChipMemory:
		return "off-chip-mem"
	case OnChipMemory:
		return "on-chip-mem"
	default:
		return "communication"
	}
}

// Op identifies the decomposition step a fault targets.
type Op int

// Decomposition operations.
const (
	PD        Op = iota // panel decomposition (CPU)
	PU                  // panel update (GPU)
	TMU                 // trailing matrix update (GPU)
	CTF                 // QR triangular factor computation
	Broadcast           // PCIe panel broadcast
)

// String returns the operation's abbreviation: "PD", "PU", "TMU", "CTF",
// or "Broadcast".
func (o Op) String() string {
	switch o {
	case PD:
		return "PD"
	case PU:
		return "PU"
	case TMU:
		return "TMU"
	case CTF:
		return "CTF"
	default:
		return "Broadcast"
	}
}

// Part distinguishes the reference part (read-only inputs) from the update
// part (the sub-matrix being overwritten) of an operation (§III.A).
type Part int

// Operation parts.
const (
	ReferencePart Part = iota
	UpdatePart
)

// String returns "ref" for the reference part and "update" for the
// update part.
func (p Part) String() string {
	if p == ReferencePart {
		return "ref"
	}
	return "update"
}

// Spec schedules one fault.
type Spec struct {
	Kind Kind
	Op   Op
	Part Part
	// Iteration is the 0-based factorization iteration to strike.
	Iteration int
	// Bits is the number of bits to flip: 1 simulates a computation logic
	// fault; >= 2 simulates the multi-bit memory/PCIe upsets that ECC
	// cannot correct.
	Bits int
	// Row, Col select the element within the targeted region; -1 picks a
	// pseudo-random element.
	Row, Col int
	// RefIndex selects among multiple regions with the same Part (e.g.
	// TMU's two reference panels: 0 = column panel, 1 = row panel).
	RefIndex int
	// GPUTarget selects which broadcast leg a Communication fault hits
	// (destination GPU id); -1 picks leg 0.
	GPUTarget int
}

// Describe returns a compact single-line description of the scheduled
// fault — kind, target operation/part, iteration, element addressing, and
// flip width — the form chaos-campaign logs carry so a failure is
// diagnosable without re-running the injection:
//
//	off-chip-mem@PD/ref it=0 elem=(1,0) bits=2
//	communication@PU/update it=3 elem=(rand,rand) bits=2 gpu=1
func (s Spec) Describe() string {
	elem := func(v int) string {
		if v < 0 {
			return "rand"
		}
		return fmt.Sprintf("%d", v)
	}
	d := fmt.Sprintf("%s@%s/%s it=%d elem=(%s,%s) bits=%d",
		s.Kind, s.Op, s.Part, s.Iteration, elem(s.Row), elem(s.Col), s.Bits)
	if s.Kind == Communication {
		target := s.GPUTarget
		if target < 0 {
			target = 0
		}
		d += fmt.Sprintf(" gpu=%d", target)
	}
	return d
}

// String is Describe, so %v formatting of a Spec is log-ready.
func (s Spec) String() string { return s.Describe() }

// Event records one fault that was actually injected.
type Event struct {
	Spec     Spec
	GlobalI  int
	GlobalJ  int
	Old, New float64
}

// String describes the fired fault: kind@op/part, the iteration, the
// corrupted element, and its value before and after.
func (e Event) String() string {
	return fmt.Sprintf("%s@%s/%s it=%d elem=(%d,%d) %.6g->%.6g",
		e.Spec.Kind, e.Spec.Op, e.Spec.Part, e.Spec.Iteration, e.GlobalI, e.GlobalJ, e.Old, e.New)
}

// FlipBits XORs the given bit positions (0 = mantissa LSB, 62 = top
// exponent bit; bit 63, the sign, is allowed too) into v's IEEE-754
// representation.
func FlipBits(v float64, bits ...int) float64 {
	u := math.Float64bits(v)
	for _, b := range bits {
		u ^= 1 << uint(b)
	}
	return math.Float64frombits(u)
}

// Corrupt produces a corrupted version of v by flipping nbits significant
// bits, guaranteeing the alteration is finite and distinguishable from
// round-off (the paper's stated injection policy). For values too small
// for any exponent/mantissa flip to clear the detection threshold, it
// flips the corresponding bits of a unit-magnitude pattern instead.
func Corrupt(v float64, nbits int, rng *matrix.RNG) float64 {
	if nbits < 1 {
		nbits = 1
	}
	// Candidate positions: the top two mantissa bits and low exponent bits
	// give large relative changes without reaching Inf/NaN for the
	// magnitudes (O(1)..O(n)) that appear in our matrices.
	candidates := []int{51, 50, 52, 53}
	bits := make([]int, 0, nbits)
	start := rng.Intn(len(candidates))
	for i := 0; i < nbits; i++ {
		bits = append(bits, candidates[(start+i)%len(candidates)])
	}
	c := FlipBits(v, bits...)
	if !isSignificant(v, c) {
		// Small or zero values: flipping their bits changes almost nothing
		// in absolute terms; bias to a detectable magnitude, as the paper
		// does by always choosing "significant enough" bits.
		delta := 2 + rng.Float64()
		if c < v || (c == v && rng.Intn(2) == 0) {
			delta = -delta
		}
		c = v + delta
	}
	if math.IsInf(c, 0) || math.IsNaN(c) {
		c = v + 1e3
	}
	return c
}

// isSignificant requires the corruption to be well above every verification
// tolerance used by internal/core, so an injected fault is never mistaken
// for round-off.
func isSignificant(v, c float64) bool {
	return math.Abs(c-v) > 1
}
