package overhead

import (
	"math"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

func TestStructure(t *testing.T) {
	for _, d := range []Decomp{Cholesky, LU, QR} {
		b := Analytic(d, 1024, 64, 0)
		if b.Encode <= 0 || b.Update <= 0 || b.Verify <= 0 {
			t.Fatalf("%v: non-positive component %+v", d, b)
		}
		// Encoding and verification vanish as 1/n...
		b2 := Analytic(d, 2048, 64, 0)
		if b2.Encode >= b.Encode || b2.Verify >= b.Verify {
			t.Errorf("%v: encode/verify must shrink with n: %+v vs %+v", d, b, b2)
		}
		// ...while updating is n-independent and shrinks with NB.
		if b2.Update != b.Update {
			t.Errorf("%v: update term must not depend on n", d)
		}
		b3 := Analytic(d, 1024, 128, 0)
		if b3.Update >= b.Update {
			t.Errorf("%v: update term must shrink with NB", d)
		}
	}
}

func TestErrorsIncreaseVerification(t *testing.T) {
	if Analytic(LU, 1024, 64, 3).Verify <= Analytic(LU, 1024, 64, 0).Verify {
		t.Fatal("K errors must add verification cost")
	}
}

func TestQRCheapestRelative(t *testing.T) {
	// QR's O(n³) constant is largest, so its relative protection overhead
	// is smallest (the §IX and Fig. 15 observation).
	ch := Analytic(Cholesky, 2048, 64, 0).Total()
	lu := Analytic(LU, 2048, 64, 0).Total()
	qr := Analytic(QR, 2048, 64, 0).Total()
	if qr >= lu || qr >= ch {
		t.Fatalf("QR %.4f should be cheapest (chol %.4f, lu %.4f)", qr, ch, lu)
	}
}

func TestMemorySpace(t *testing.T) {
	if MemorySpace(64) != 4.0/64 {
		t.Fatalf("memory overhead = %v", MemorySpace(64))
	}
}

// TestAnalyticMatchesMeasured cross-validates the model against the real
// engine's deterministic flop counts: the prediction must land within a
// factor of two of the measured relative overhead (the model keeps only
// leading-order terms).
func TestAnalyticMatchesMeasured(t *testing.T) {
	const n, nb, gpus = 512, 64, 2
	measure := func(opts core.Options) float64 {
		sys := hetsim.New(hetsim.DefaultConfig(gpus))
		a := matrix.RandomDiagDominant(n, matrix.NewRNG(1))
		_, _, res, err := core.LU(sys, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Flops)
	}
	base := measure(core.Options{NB: nb, Protection: core.NoChecksum, Scheme: core.NoCheck})
	prot := measure(core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel})
	measured := (prot - base) / base
	predicted := Analytic(LU, n, nb, 0).Total()
	if measured <= 0 {
		t.Fatalf("measured overhead %v not positive", measured)
	}
	ratio := predicted / measured
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("model off by more than 2x: predicted %.4f, measured %.4f", predicted, measured)
	}
}

func TestStringer(t *testing.T) {
	if Cholesky.String() == "" || LU.String() == "" || QR.String() == "" {
		t.Fatal("empty decomp names")
	}
}

func TestFromSnapshots(t *testing.T) {
	before := obs.Default().Snapshot()
	obs.ObservePhaseSeconds(obs.PhaseEncode, 0.5)
	obs.ObservePhaseSeconds(obs.PhaseFactorize, 2.0)
	obs.ObservePhaseSeconds(obs.PhaseVerify, 0.25)
	obs.ObservePhaseSeconds(obs.PhaseRecover, 0.25)
	obs.ObservePhaseSeconds(obs.PhasePCIe, 1.5)
	m := FromSnapshots(before, obs.Default().Snapshot())

	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(m.Encode, 0.5) || !approx(m.Factorize, 2) || !approx(m.Verify, 0.25) ||
		!approx(m.Recover, 0.25) || !approx(m.PCIe, 1.5) {
		t.Fatalf("measured breakdown = %+v", m)
	}
	if !approx(m.ABFTSeconds(), 1.0) {
		t.Fatalf("ABFTSeconds = %v, want 1.0", m.ABFTSeconds())
	}
	if !approx(m.Overhead(), 0.5) {
		t.Fatalf("Overhead = %v, want 0.5", m.Overhead())
	}
	// The diff is region-scoped: a fresh pair of snapshots sees nothing.
	clean := obs.Default().Snapshot()
	if got := FromSnapshots(clean, obs.Default().Snapshot()); got != (Measured{}) {
		t.Fatalf("empty region measured %+v", got)
	}
	if (Measured{Verify: 1}).Overhead() != 0 {
		t.Fatal("Overhead must be 0 when no factorize time was recorded")
	}
}

// TestMeasuredAgainstAnalytic runs a real protected LU and checks the
// measured ABFT overhead is positive and within an order of magnitude of
// the §IX.A prediction — a smoke link between model and observation, not a
// tight bound (wall-clock attribution on a shared host is noisy).
func TestMeasuredAgainstAnalytic(t *testing.T) {
	const n, nb = 256, 32
	before := obs.Default().Snapshot()
	sys := hetsim.New(hetsim.DefaultConfig(2))
	a := matrix.RandomDiagDominant(n, matrix.NewRNG(3))
	if _, _, _, err := core.LU(sys, a, core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel}); err != nil {
		t.Fatal(err)
	}
	m := FromSnapshots(before, obs.Default().Snapshot())
	if m.Encode <= 0 || m.Verify <= 0 || m.Factorize <= 0 {
		t.Fatalf("expected positive encode/verify/factorize, got %+v", m)
	}
	pred := Analytic(LU, n, nb, 0).Total()
	got := m.Overhead()
	if got <= 0 || got > 40*pred {
		t.Fatalf("measured overhead %v implausible vs analytic %v", got, pred)
	}
}
