// Package probmodel implements the paper's fault-coverage probability
// model (§X.B): given per-element hardware error rates, it computes for
// each update operation of one LU iteration the probability of the four
// outcomes — Fault Free, ABFT Fixable, Local Restart, Complete Restart —
// under each ABFT approach, and the resulting expected recovery cost.
// These are the quantities plotted in Figs. 6–8 (outcome probabilities per
// operation) and Figs. 9–11 (expected recovery cost per operation).
package probmodel

import "math"

// Rates are the per-element hardware error rates of Table IX.
type Rates struct {
	// OnChip is the on-chip memory error rate per element per second of
	// operation time (λ₁).
	OnChip float64
	// OffChip is the DRAM error rate per element per second of storage
	// time (λ₂).
	OffChip float64
	// Compute is the calculation error rate per flop (λ₃ stand-in).
	Compute float64
	// PCIe is the per-element transfer error rate (λ₄).
	PCIe float64
}

// PaperRates returns the illustrative rates of §X.B
// (λ₁=1e-13, λ₂=1e-9, λ₃=1e-9, λ₄=1e-11).
func PaperRates() Rates {
	return Rates{Compute: 1e-13, OffChip: 1e-9, OnChip: 1e-9, PCIe: 1e-11}
}

// Op is one update operation of an LU iteration.
type Op int

// Operations.
const (
	PD Op = iota
	PU
	TMU
)

// String returns the operation's abbreviation: "PD", "PU", or "TMU".
func (o Op) String() string {
	switch o {
	case PD:
		return "PD"
	case PU:
		return "PU"
	default:
		return "TMU"
	}
}

// Approach is an ABFT protection configuration.
type Approach int

// Protection approaches compared in the paper's evaluation.
const (
	SingleSidePrior Approach = iota
	SingleSidePost
	FullPost
	FullNew
)

// String returns the approach's label: "single+prior", "single+post",
// "full+post", or "full+new".
func (a Approach) String() string {
	switch a {
	case SingleSidePrior:
		return "single+prior"
	case SingleSidePost:
		return "single+post"
	case FullPost:
		return "full+post"
	default:
		return "full+new"
	}
}

// Outcome is the four-way result of §X.B.
type Outcome int

// Outcomes.
const (
	FaultFree Outcome = iota
	ABFTFixable
	LocalRestart
	CompleteRestart
)

// String returns the outcome's label: "fault-free", "abft-fixable",
// "local-restart", or "complete-restart".
func (o Outcome) String() string {
	switch o {
	case FaultFree:
		return "fault-free"
	case ABFTFixable:
		return "abft-fixable"
	case LocalRestart:
		return "local-restart"
	default:
		return "complete-restart"
	}
}

// Model carries the workload and platform parameters.
type Model struct {
	N  int // trailing matrix order at the modeled iteration
	NB int // block size
	// GflopsCPU / GflopsGPU convert flop counts into operation times.
	GflopsCPU float64
	GflopsGPU float64
	// PCIeGBps converts transfer sizes into broadcast exposure.
	PCIeGBps float64
	Rates    Rates
}

// PaperModel returns the §X.B parameterization: n=10240, nb=256, with
// platform speeds shaped like the paper's testbed.
func PaperModel() Model {
	return Model{
		N: 10240, NB: 256,
		GflopsCPU: 50, GflopsGPU: 1000, PCIeGBps: 12,
		Rates: PaperRates(),
	}
}

// flops returns the flop count of op at the modeled iteration.
func (m Model) flops(op Op) float64 {
	n, nb := float64(m.N), float64(m.NB)
	switch op {
	case PD:
		return n * nb * nb
	case PU:
		return nb * nb * (n - nb)
	default:
		return 2 * (n - nb) * (n - nb) * nb
	}
}

// opTime returns the wall time of op on its assigned device (PD on the
// CPU, PU/TMU on GPUs).
func (m Model) opTime(op Op) float64 {
	if op == PD {
		return m.flops(op) / (m.GflopsCPU * 1e9)
	}
	return m.flops(op) / (m.GflopsGPU * 1e9)
}

// footprint returns the number of matrix elements in the update+reference
// parts of op.
func (m Model) footprint(op Op) float64 {
	n, nb := float64(m.N), float64(m.NB)
	switch op {
	case PD:
		return n * nb
	case PU:
		return nb*nb + nb*(n-nb)
	default:
		return (n-nb)*nb + nb*(n-nb) + (n-nb)*(n-nb)
	}
}

// broadcastElems returns the number of elements transferred after op.
func (m Model) broadcastElems(op Op) float64 {
	n, nb := float64(m.N), float64(m.NB)
	switch op {
	case PD:
		return n * nb
	case PU:
		return (n - nb) * nb
	default:
		return 0
	}
}

// CaseProbs holds the probability of each §X.B fault case for one
// operation: exactly the events A–H of the paper.
type CaseProbs struct {
	NoComputeErr  float64 // A
	ComputeErr    float64 // B
	NoMemBetween  float64 // C
	MemBetween    float64 // D
	NoMemDuring   float64 // E
	MemDuring     float64 // F (off-chip or on-chip during the op)
	NoBcastErr    float64 // G
	BcastErr      float64 // H
	FaultFreeProb float64 // joint no-fault probability
}

// Cases evaluates the event probabilities for op.
func (m Model) Cases(op Op) CaseProbs {
	t := m.opTime(op)
	fp := m.footprint(op)
	bc := m.broadcastElems(op)
	var c CaseProbs
	// A/B: calculation errors scale with executed flops.
	c.NoComputeErr = math.Exp(-m.Rates.Compute * m.flops(op))
	c.ComputeErr = 1 - c.NoComputeErr
	// C/D: off-chip exposure between operations is modeled over one
	// operation-time of storage.
	c.NoMemBetween = math.Exp(-m.Rates.OffChip * fp * t)
	c.MemBetween = 1 - c.NoMemBetween
	// E/F: off-chip + on-chip exposure during the operation.
	during := (m.Rates.OffChip + m.Rates.OnChip) * fp * t
	c.NoMemDuring = math.Exp(-during)
	c.MemDuring = 1 - c.NoMemDuring
	// G/H: transfer errors scale with broadcast volume.
	c.NoBcastErr = math.Exp(-m.Rates.PCIe * bc)
	c.BcastErr = 1 - c.NoBcastErr
	c.FaultFreeProb = c.NoComputeErr * c.NoMemBetween * c.NoMemDuring * c.NoBcastErr
	return c
}

// outcomeOf classifies a fault case under an approach, mirroring the
// protection matrix measured in the Table VIII campaign (internal/core):
// which (approach, op, fault) combinations are fixable online, need a
// local restart, or escape to a complete restart.
func outcomeOf(a Approach, op Op, kind string) Outcome {
	full := a == FullPost || a == FullNew
	switch kind {
	case "compute":
		switch op {
		case PD:
			if a == SingleSidePrior {
				return CompleteRestart // no post-PD verification
			}
			return LocalRestart
		case PU:
			if !full {
				return CompleteRestart // updated row panel unprotected
			}
			return ABFTFixable
		default:
			return ABFTFixable // 0-D in the trailing output
		}
	case "membetween":
		// DRAM fault between operations: visible to a memory check.
		if a == SingleSidePrior || a == FullNew {
			return ABFTFixable // pre-op check catches it before use
		}
		if op == TMU {
			// Post-op trailing check sees the inconsistency afterwards.
			if full {
				return ABFTFixable
			}
			return LocalRestart
		}
		return CompleteRestart // post-op panel checks can't see input faults
	case "memduring":
		// Memory fault during the op: 1-D propagation in PU/TMU, 2-D in PD.
		switch op {
		case PD:
			if a == SingleSidePrior {
				return CompleteRestart
			}
			return LocalRestart
		case PU:
			if !full {
				return CompleteRestart
			}
			return ABFTFixable // §VII.D: 1-D is correctable in the panel
		default:
			if !full {
				return LocalRestart // detected, but 1-D not reconstructible
			}
			return ABFTFixable // orthogonal checksum rebuilds the line
		}
	default: // "bcast"
		if a == FullNew {
			return ABFTFixable // post-broadcast verification (§VII.C)
		}
		// Pre-broadcast checkers let PCIe corruption propagate into the
		// next operation: 1-D or worse by then.
		if full {
			return LocalRestart
		}
		return CompleteRestart
	}
}

// OutcomeProbs is the §X.B four-way distribution for one (approach, op).
type OutcomeProbs struct {
	Approach Approach
	Op       Op
	P        [4]float64 // indexed by Outcome
}

// Outcomes computes the four-way outcome distribution of op under a.
// At most one fault case strikes per operation (the paper's assumption);
// the fault-case probabilities are normalized accordingly.
func (m Model) Outcomes(a Approach, op Op) OutcomeProbs {
	c := m.Cases(op)
	out := OutcomeProbs{Approach: a, Op: op}
	out.P[FaultFree] = c.FaultFreeProb
	rest := 1 - c.FaultFreeProb
	// Split the faulty mass across the four fault kinds proportionally.
	weights := map[string]float64{
		"compute":    c.ComputeErr,
		"membetween": c.MemBetween,
		"memduring":  c.MemDuring,
		"bcast":      c.BcastErr,
	}
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	if totalW <= 0 {
		return out
	}
	for kind, w := range weights {
		out.P[outcomeOf(a, op, kind)] += rest * w / totalW
	}
	return out
}

// RecoveryCosts parameterize the expected-cost computation: seconds per
// outcome, relative to the operation time.
type RecoveryCosts struct {
	// FixFraction is the cost of an online ABFT fix relative to the op
	// time (the paper measures < 1%–3%).
	FixFraction float64
	// RestartFactor is the cost of a local restart relative to the op
	// time (redo once ≈ 1.0).
	RestartFactor float64
	// CompleteFactor is the cost of a complete restart relative to the op
	// time (the entire factorization so far; dominated by n/nb ops).
	CompleteFactor float64
}

// DefaultCosts returns recovery costs matching the campaign measurements.
func DefaultCosts() RecoveryCosts {
	return RecoveryCosts{FixFraction: 0.02, RestartFactor: 1.0, CompleteFactor: 40}
}

// ExpectedRecovery returns the expected recovery seconds for (a, op):
// Σ P(outcome)·cost(outcome) — the quantity of Figs. 9–11.
func (m Model) ExpectedRecovery(a Approach, op Op, rc RecoveryCosts) float64 {
	probs := m.Outcomes(a, op)
	t := m.opTime(op)
	return probs.P[ABFTFixable]*rc.FixFraction*t +
		probs.P[LocalRestart]*rc.RestartFactor*t +
		probs.P[CompleteRestart]*rc.CompleteFactor*t
}

// AllApproaches lists the compared configurations in paper order.
func AllApproaches() []Approach {
	return []Approach{SingleSidePrior, SingleSidePost, FullPost, FullNew}
}

// AllOps lists the modeled operations.
func AllOps() []Op { return []Op{PD, PU, TMU} }

// ExpectedIterationRecovery sums the expected recovery cost over the three
// operations of one iteration.
func (m Model) ExpectedIterationRecovery(a Approach, rc RecoveryCosts) float64 {
	total := 0.0
	for _, op := range AllOps() {
		total += m.ExpectedRecovery(a, op, rc)
	}
	return total
}

// SweepPoint is one measurement of the rate-sensitivity extension study.
type SweepPoint struct {
	Multiplier float64
	Cost       map[Approach]float64
}

// SweepRates scales every hardware error rate by each multiplier and
// evaluates the expected per-iteration recovery cost of every approach —
// an extension of Figs. 9–11 exploring how the approaches separate as
// hardware degrades (e.g. under the undervolting scenarios the paper's
// introduction cites).
func (m Model) SweepRates(multipliers []float64, rc RecoveryCosts) []SweepPoint {
	var out []SweepPoint
	for _, mult := range multipliers {
		scaled := m
		scaled.Rates.Compute *= mult
		scaled.Rates.OffChip *= mult
		scaled.Rates.OnChip *= mult
		scaled.Rates.PCIe *= mult
		pt := SweepPoint{Multiplier: mult, Cost: map[Approach]float64{}}
		for _, a := range AllApproaches() {
			pt.Cost[a] = scaled.ExpectedIterationRecovery(a, rc)
		}
		out = append(out, pt)
	}
	return out
}
