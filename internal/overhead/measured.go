package overhead

import "ftla/internal/obs"

// Measured is the observed counterpart of Breakdown: per-phase seconds for
// a region of interest, read from the obs registry's ftla_phase_seconds
// histograms rather than predicted by the §IX.A model. Encode, Verify and
// Recover are wall-clock ABFT time; Factorize is the non-ABFT remainder of
// the drivers' wall time; PCIe is simulated-clock transfer time and so is
// not commensurable with the other fields (see OBSERVABILITY.md).
type Measured struct {
	Encode    float64
	Factorize float64
	Verify    float64
	Recover   float64
	PCIe      float64
}

// FromSnapshots derives the measured phase breakdown of everything that ran
// between two snapshots of the same registry (normally obs.Default()):
//
//	before := obs.Default().Snapshot()
//	... factorize ...
//	m := overhead.FromSnapshots(before, obs.Default().Snapshot())
//
// The repo benchmarks report phase breakdowns through this one function,
// so the numbers are directly comparable to a /metrics scrape diff.
func FromSnapshots(before, after obs.Snapshot) Measured {
	d := after.Diff(before)
	return Measured{
		Encode:    d.PhaseSeconds(obs.PhaseEncode),
		Factorize: d.PhaseSeconds(obs.PhaseFactorize),
		Verify:    d.PhaseSeconds(obs.PhaseVerify),
		Recover:   d.PhaseSeconds(obs.PhaseRecover),
		PCIe:      d.PhaseSeconds(obs.PhasePCIe),
	}
}

// ABFTSeconds returns the wall-clock time spent on fault tolerance:
// encode + verify + recover.
func (m Measured) ABFTSeconds() float64 { return m.Encode + m.Verify + m.Recover }

// Overhead returns the measured relative ABFT overhead — ABFT seconds over
// factorize seconds — the observed analogue of Breakdown.Total(). Checksum
// updating is executed inside the factorization kernels and cannot be
// separated by wall-clock attribution, so unlike the analytic model its
// cost appears in the denominator here, not the numerator. Returns 0 when
// no factorize time was recorded.
func (m Measured) Overhead() float64 {
	if m.Factorize <= 0 {
		return 0
	}
	return m.ABFTSeconds() / m.Factorize
}
