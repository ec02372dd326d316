package core

import (
	"testing"

	"ftla/internal/fault"
	"ftla/internal/matrix"
)

func TestOfflineCleanPassesAll(t *testing.T) {
	const n, nb = 128, 16
	opts := Options{NB: nb, Protection: NoChecksum, Scheme: NoCheck}

	a := matrix.RandomDiagDominant(n, matrix.NewRNG(1))
	chk := OfflineChecksum(a)
	scale := 1 + matrix.NormMax(a)
	out, piv, _, err := LU(testSystem(2), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !OfflineCheckLU(chk, out, piv, scale) {
		t.Fatal("offline LU check false positive")
	}

	s := matrix.RandomSPD(n, matrix.NewRNG(2))
	chkS := OfflineChecksum(s)
	scaleS := 1 + matrix.NormMax(s)
	l, _, err := Cholesky(testSystem(2), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !OfflineCheckCholesky(chkS, l, scaleS) {
		t.Fatal("offline Cholesky check false positive")
	}

	q := matrix.Random(n, n, matrix.NewRNG(3))
	chkQ := OfflineChecksum(q)
	scaleQ := 1 + matrix.NormMax(q)
	f, tau, _, err := QR(testSystem(2), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !OfflineCheckQR(chkQ, f, tau, scaleQ) {
		t.Fatal("offline QR check false positive")
	}
}

func TestOfflineDetectsInjectedFaults(t *testing.T) {
	const n, nb = 128, 16
	for _, spec := range []fault.Spec{
		{Kind: fault.Computation, Op: fault.PD, Iteration: 1},
		{Kind: fault.Computation, Op: fault.PU, Iteration: 2},
		{Kind: fault.Computation, Op: fault.TMU, Iteration: 0},
		{Kind: fault.OffChipMemory, Op: fault.TMU, Part: fault.ReferencePart, Iteration: 1},
	} {
		inj := fault.NewInjector(7)
		inj.Schedule(spec)
		a := matrix.RandomDiagDominant(n, matrix.NewRNG(4))
		chk := OfflineChecksum(a)
		scale := 1 + matrix.NormMax(a)
		out, piv, _, err := LU(testSystem(2), a, Options{NB: nb, Protection: NoChecksum, Scheme: NoCheck, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		if len(inj.Events()) != 1 {
			t.Fatalf("%+v did not fire", spec)
		}
		if OfflineCheckLU(chk, out, piv, scale) {
			t.Errorf("offline check missed %+v (residual %g)", spec, matrix.LUResidual(a, out, piv))
		}
	}
}

func TestOfflineDetectsCorruptedCholeskyAndQR(t *testing.T) {
	const n, nb = 128, 16
	inj := fault.NewInjector(9)
	inj.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.TMU, Iteration: 1})
	s := matrix.RandomSPD(n, matrix.NewRNG(5))
	chk := OfflineChecksum(s)
	l, _, err := Cholesky(testSystem(2), s, Options{NB: nb, Protection: NoChecksum, Scheme: NoCheck, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if OfflineCheckCholesky(chk, l, 1+matrix.NormMax(s)) {
		t.Error("offline Cholesky check missed a TMU fault")
	}

	inj2 := fault.NewInjector(11)
	inj2.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.TMU, Iteration: 1})
	q := matrix.Random(n, n, matrix.NewRNG(6))
	chkQ := OfflineChecksum(q)
	f, tau, _, err := QR(testSystem(2), q, Options{NB: nb, Protection: NoChecksum, Scheme: NoCheck, Injector: inj2})
	if err != nil {
		t.Fatal(err)
	}
	if OfflineCheckQR(chkQ, f, tau, 1+matrix.NormMax(q)) {
		t.Error("offline QR check missed a TMU fault")
	}
}

// Offline ABFT's defining weakness (the paper's §II motivation for online
// schemes): it detects but cannot localize or repair — there is no
// recovery path short of a complete restart. This test documents that the
// detection is all it provides: the factors really are corrupt.
func TestOfflineCannotRepair(t *testing.T) {
	inj := fault.NewInjector(13)
	inj.Schedule(fault.Spec{Kind: fault.Computation, Op: fault.PD, Iteration: 0})
	a := matrix.RandomDiagDominant(96, matrix.NewRNG(8))
	out, piv, _, err := LU(testSystem(2), a, Options{NB: 16, Protection: NoChecksum, Scheme: NoCheck, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.LUResidual(a, out, piv); r < 1e-9 {
		t.Skip("fault landed harmlessly")
	}
	chk := OfflineChecksum(a)
	if OfflineCheckLU(chk, out, piv, 1+matrix.NormMax(a)) {
		t.Fatal("corrupted factors passed the offline check")
	}
}
