package core

import (
	"strings"
	"testing"

	"ftla/internal/fault"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// TestDataflowTrace validates the paper's hybrid execution assignment
// (§III.A): panel decompositions run on the CPU, panel/trailing updates on
// the GPUs, and panels move over PCIe.
func TestDataflowTrace(t *testing.T) {
	sys := testSystem(2)
	tr := obs.NewTrace()
	sys.SetTracer(tr)
	a := matrix.RandomDiagDominant(64, matrix.NewRNG(1))
	if _, _, _, err := LU(sys, a, cholOpts(Full, NewScheme)); err != nil {
		t.Fatal(err)
	}
	var sawGetf2OnCPU, sawGemmOnGPU, sawTrsmOnGPU, sawPCIe bool
	for _, sp := range tr.Spans() {
		if sp.Proc != obs.ProcSim {
			continue
		}
		switch {
		case sp.Name == "getf2" && sp.Track == "CPU":
			sawGetf2OnCPU = true
		case sp.Name == "gemm" && strings.HasPrefix(sp.Track, "GPU"):
			sawGemmOnGPU = true
		case sp.Name == "trsm" && strings.HasPrefix(sp.Track, "GPU"):
			sawTrsmOnGPU = true
		case sp.Cat == obs.PhasePCIe:
			sawPCIe = true
		}
		if sp.Name == "getf2" && sp.Track != "CPU" {
			t.Errorf("panel decomposition ran on %s", sp.Track)
		}
	}
	if !sawGetf2OnCPU || !sawGemmOnGPU || !sawTrsmOnGPU || !sawPCIe {
		t.Fatalf("dataflow incomplete: getf2@CPU=%v gemm@GPU=%v trsm@GPU=%v pcie=%v",
			sawGetf2OnCPU, sawGemmOnGPU, sawTrsmOnGPU, sawPCIe)
	}
}

// TestPU1DVersus2D reproduces the §VII.D distinction: a fault in PU's
// update part propagates 1-D and is corrected in place (no restart), while
// a fault in PU's reference part propagates 2-D and forces a local
// in-memory restart.
func TestPU1DVersus2D(t *testing.T) {
	run := func(spec fault.Spec) *Result {
		inj := fault.NewInjector(3)
		inj.Schedule(spec)
		sys := testSystem(2)
		a := matrix.RandomDiagDominant(96, matrix.NewRNG(9))
		opts := cholOpts(Full, NewScheme)
		opts.Injector = inj
		out, piv, res, err := LU(sys, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(inj.Events()) != 1 {
			t.Fatalf("fault did not fire: %+v", spec)
		}
		if r := matrix.LUResidual(a, out, piv); r > 1e-9 {
			t.Fatalf("spec %+v not recovered: residual %g (counters %+v)", spec, r, res.Counter)
		}
		return res
	}
	// Update-part memory fault: 1-D propagation, correctable in place.
	oneD := run(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PU, Part: fault.UpdatePart, Iteration: 1})
	if oneD.Counter.LocalRestarts != 0 {
		t.Errorf("1-D PU fault needed %d local restarts, want 0 (§VII.D)", oneD.Counter.LocalRestarts)
	}
	// Reference-part on-chip fault: 2-D propagation inside PU, needs a
	// local restart (strictly-lower element so the TRSM consumes it).
	twoD := run(fault.Spec{Kind: fault.OnChipMemory, Op: fault.PU, Part: fault.ReferencePart, Iteration: 1, Row: 15, Col: 0})
	if twoD.Counter.LocalRestarts == 0 {
		t.Error("2-D PU fault recovered without local restart — §VII.D expects a restart")
	}
}

// TestLargerMultiGPU runs all three decompositions clean at 4 GPUs with
// the default block size, the configuration the weak-scaling figures use.
func TestLargerMultiGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("larger integration test")
	}
	const n, nb, gpus = 512, 64, 4
	opts := Options{NB: nb, Protection: Full, Scheme: NewScheme}
	sys := testSystem(gpus)
	a := matrix.RandomSPD(n, matrix.NewRNG(1))
	out, res, err := Cholesky(sys, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.CholeskyResidual(a, out); r > 1e-11 || res.Detected {
		t.Fatalf("cholesky: residual %g detected=%v", r, res.Detected)
	}

	sys = testSystem(gpus)
	b := matrix.RandomDiagDominant(n, matrix.NewRNG(2))
	lu, piv, res2, err := LU(sys, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.LUResidual(b, lu, piv); r > 1e-11 || res2.Detected {
		t.Fatalf("lu: residual %g detected=%v", r, res2.Detected)
	}

	sys = testSystem(gpus)
	c := matrix.Random(n, n, matrix.NewRNG(3))
	qr, tau, res3, err := QR(sys, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.QRResidual(c, lapack.BuildQ(qr, tau), lapack.ExtractR(qr)); r > 1e-11 || res3.Detected {
		t.Fatalf("qr: residual %g detected=%v", r, res3.Detected)
	}
}

// TestPCIeAccounting checks that protection increases PCIe traffic only by
// the checksum payloads (2/NB per dimension), not by extra panel copies.
func TestPCIeAccounting(t *testing.T) {
	run := func(mode Mode, scheme Scheme) int64 {
		sys := testSystem(2)
		a := matrix.RandomDiagDominant(128, matrix.NewRNG(4))
		_, _, res, err := LU(sys, a, Options{NB: 16, Protection: mode, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		return res.PCIeBytes
	}
	base := run(NoChecksum, NoCheck)
	prot := run(Full, NewScheme)
	if prot <= base {
		t.Fatal("protected run must move checksum payloads")
	}
	// With nb=16 the checksum payload ratio is 4/nb = 25%; allow slack for
	// the initial checksum-free distribution being shared.
	if float64(prot) > 1.6*float64(base) {
		t.Fatalf("PCIe inflation too high: %d vs %d", prot, base)
	}
}

// TestSimClockAdvances checks the simulated platform clock reflects the
// device assignment: the GPUs should accumulate (far) more simulated busy
// time than the CPU for a TMU-dominated factorization.
func TestSimClockAdvances(t *testing.T) {
	sys := testSystem(2)
	a := matrix.RandomDiagDominant(128, matrix.NewRNG(5))
	if _, _, _, err := LU(sys, a, cholOpts(Full, NewScheme)); err != nil {
		t.Fatal(err)
	}
	var gpuTime float64
	for _, g := range sys.GPUs() {
		gpuTime += g.SimTime()
	}
	if gpuTime <= 0 || sys.CPU().SimTime() <= 0 {
		t.Fatal("sim clocks did not advance")
	}
	if sys.PCIeSimTime() <= 0 {
		t.Fatal("PCIe sim clock did not advance")
	}
}
