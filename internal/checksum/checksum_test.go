package checksum

import (
	"math"
	"testing"
	"testing/quick"

	"ftla/internal/matrix"
)

func manualColChk(a *matrix.Dense, nb int) *matrix.Dense {
	out := matrix.NewDense(ColDims(a.Rows, a.Cols, nb))
	for s := 0; s < Strips(a.Rows, nb); s++ {
		lo := s * nb
		hi := lo + nb
		if hi > a.Rows {
			hi = a.Rows
		}
		for j := 0; j < a.Cols; j++ {
			s1, s2 := 0.0, 0.0
			for i := lo; i < hi; i++ {
				v := a.At(i, j)
				s1 += v
				s2 += float64(i-lo+1) * v
			}
			out.Set(2*s, j, s1)
			out.Set(2*s+1, j, s2)
		}
	}
	return out
}

func manualRowChk(a *matrix.Dense, nb int) *matrix.Dense {
	out := matrix.NewDense(RowDims(a.Rows, a.Cols, nb))
	for s := 0; s < Strips(a.Cols, nb); s++ {
		lo := s * nb
		hi := lo + nb
		if hi > a.Cols {
			hi = a.Cols
		}
		for i := 0; i < a.Rows; i++ {
			s1, s2 := 0.0, 0.0
			for j := lo; j < hi; j++ {
				v := a.At(i, j)
				s1 += v
				s2 += float64(j-lo+1) * v
			}
			out.Set(i, 2*s, s1)
			out.Set(i, 2*s+1, s2)
		}
	}
	return out
}

func TestStrips(t *testing.T) {
	if Strips(10, 4) != 3 || Strips(8, 4) != 2 || Strips(0, 4) != 0 || Strips(1, 4) != 1 {
		t.Fatal("Strips arithmetic wrong")
	}
}

func TestEncodeColBothKernels(t *testing.T) {
	rng := matrix.NewRNG(1)
	for _, dims := range [][3]int{{8, 8, 4}, {10, 7, 4}, {5, 5, 8}, {64, 33, 16}, {1, 1, 4}} {
		r, c, nb := dims[0], dims[1], dims[2]
		a := matrix.Random(r, c, rng)
		want := manualColChk(a, nb)
		for _, k := range []Kernel{GEMMKernel, OptKernel} {
			got := matrix.NewDense(ColDims(r, c, nb))
			EncodeCol(k, 2, a, nb, got)
			if !got.EqualWithin(want, 1e-12) {
				t.Fatalf("EncodeCol kernel=%v dims=%v wrong", k, dims)
			}
		}
	}
}

func TestEncodeRowBothKernels(t *testing.T) {
	rng := matrix.NewRNG(2)
	for _, dims := range [][3]int{{8, 8, 4}, {7, 10, 4}, {5, 5, 8}, {33, 64, 16}} {
		r, c, nb := dims[0], dims[1], dims[2]
		a := matrix.Random(r, c, rng)
		want := manualRowChk(a, nb)
		for _, k := range []Kernel{GEMMKernel, OptKernel} {
			got := matrix.NewDense(RowDims(r, c, nb))
			EncodeRow(k, 2, a, nb, got)
			if !got.EqualWithin(want, 1e-12) {
				t.Fatalf("EncodeRow kernel=%v dims=%v wrong", k, dims)
			}
		}
	}
}

func TestEncodeShapePanics(t *testing.T) {
	a := matrix.NewDense(8, 8)
	bad := matrix.NewDense(1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	EncodeCol(OptKernel, 1, a, 4, bad)
}

func TestVerifyCleanMatrixNoMismatch(t *testing.T) {
	rng := matrix.NewRNG(3)
	a := matrix.Random(32, 32, rng)
	nb := 8
	chk := matrix.NewDense(ColDims(32, 32, nb))
	EncodeCol(OptKernel, 1, a, nb, chk)
	if ms := VerifyCol(1, a, nb, chk, 1e-11); len(ms) != 0 {
		t.Fatalf("clean matrix flagged: %v", ms)
	}
	rchk := matrix.NewDense(RowDims(32, 32, nb))
	EncodeRow(OptKernel, 1, a, nb, rchk)
	if ms := VerifyRow(1, a, nb, rchk, 1e-11); len(ms) != 0 {
		t.Fatalf("clean matrix row-flagged: %v", ms)
	}
}

func TestVerifyDetectsAndLocates(t *testing.T) {
	rng := matrix.NewRNG(4)
	nb := 8
	a := matrix.Random(24, 24, rng)
	chk := matrix.NewDense(ColDims(24, 24, nb))
	EncodeCol(OptKernel, 1, a, nb, chk)

	// Corrupt element (13, 5): strip 1, local row 5.
	orig := a.At(13, 5)
	a.Set(13, 5, orig+3.75)
	ms := VerifyCol(1, a, nb, chk, 1e-11)
	if len(ms) != 1 {
		t.Fatalf("mismatches = %d, want 1", len(ms))
	}
	m := ms[0]
	if m.Strip != 1 || m.Line != 5 {
		t.Fatalf("mismatch at strip=%d col=%d", m.Strip, m.Line)
	}
	lr, ok := Locate(m, nb)
	if !ok || lr != 13-nb {
		t.Fatalf("located local row %d ok=%v, want %d", lr, ok, 13-nb)
	}
	CorrectCol(a, nb, m, lr)
	if math.Abs(a.At(13, 5)-orig) > 1e-12 {
		t.Fatalf("correction wrong: %g vs %g", a.At(13, 5), orig)
	}
	if ms := VerifyCol(1, a, nb, chk, 1e-11); len(ms) != 0 {
		t.Fatal("still mismatched after correction")
	}
}

func TestVerifyRowDetectsAndLocates(t *testing.T) {
	rng := matrix.NewRNG(5)
	nb := 8
	a := matrix.Random(24, 24, rng)
	chk := matrix.NewDense(RowDims(24, 24, nb))
	EncodeRow(OptKernel, 1, a, nb, chk)
	orig := a.At(7, 18)
	a.Set(7, 18, orig-2.5)
	ms := VerifyRow(1, a, nb, chk, 1e-11)
	if len(ms) != 1 {
		t.Fatalf("mismatches = %d, want 1", len(ms))
	}
	m := ms[0]
	if m.Strip != 2 || m.Line != 7 {
		t.Fatalf("mismatch at strip=%d row=%d", m.Strip, m.Line)
	}
	lc, ok := Locate(m, nb)
	if !ok || lc != 18-2*nb {
		t.Fatalf("located col %d ok=%v", lc, ok)
	}
	CorrectRow(a, nb, m, lc)
	if math.Abs(a.At(7, 18)-orig) > 1e-12 {
		t.Fatal("row correction wrong")
	}
}

func TestLocateRejectsMultiError(t *testing.T) {
	rng := matrix.NewRNG(6)
	nb := 8
	a := matrix.Random(8, 8, rng)
	chk := matrix.NewDense(ColDims(8, 8, nb))
	EncodeCol(OptKernel, 1, a, nb, chk)
	// Two corruptions in the same column: δ₂/δ₁ lands between rows.
	a.Set(1, 3, a.At(1, 3)+1)
	a.Set(6, 3, a.At(6, 3)+1)
	ms := VerifyCol(1, a, nb, chk, 1e-11)
	if len(ms) != 1 {
		t.Fatalf("mismatches = %d, want 1 (same column)", len(ms))
	}
	if _, ok := Locate(ms[0], nb); ok {
		t.Fatal("multi-error column must not localize to a single row")
	}
}

func TestLocateRejectsCancelledD1(t *testing.T) {
	rng := matrix.NewRNG(7)
	nb := 8
	a := matrix.Random(8, 8, rng)
	chk := matrix.NewDense(ColDims(8, 8, nb))
	EncodeCol(OptKernel, 1, a, nb, chk)
	// +e and −e in one column cancel in v₁ but not v₂.
	a.Set(1, 2, a.At(1, 2)+1)
	a.Set(5, 2, a.At(5, 2)-1)
	ms := VerifyCol(1, a, nb, chk, 1e-11)
	// v₁ delta is 0, so detection must come from... v₁ only in VerifyCol;
	// this is the documented blind spot of single-weight detection, the
	// v₂ row still catches it through D2 when D1 passes — assert current
	// contract: no v₁ mismatch.
	for _, m := range ms {
		if _, ok := Locate(m, nb); ok {
			t.Fatal("cancelled corruption must not localize")
		}
	}
}

func TestNaNCorruptionDetected(t *testing.T) {
	rng := matrix.NewRNG(8)
	nb := 4
	a := matrix.Random(8, 8, rng)
	chk := matrix.NewDense(ColDims(8, 8, nb))
	EncodeCol(OptKernel, 1, a, nb, chk)
	a.Set(2, 2, math.NaN())
	ms := VerifyCol(1, a, nb, chk, 1e-11)
	if len(ms) == 0 {
		t.Fatal("NaN corruption undetected")
	}
}

func TestReconstructColumn(t *testing.T) {
	rng := matrix.NewRNG(9)
	nb := 8
	a := matrix.Random(24, 24, rng)
	want := a.Clone()
	rchk := matrix.NewDense(RowDims(24, 24, nb))
	EncodeRow(OptKernel, 1, a, nb, rchk)
	// Wipe out an entire column (1-D propagation).
	for i := 0; i < 24; i++ {
		a.Set(i, 10, math.Inf(1))
	}
	ReconstructColumn(a, nb, rchk, 10, 0, 24)
	if !a.EqualWithin(want, 1e-10) {
		d, i, j := a.MaxAbsDiff(want)
		t.Fatalf("reconstruction diff %g at (%d,%d)", d, i, j)
	}
}

func TestReconstructRow(t *testing.T) {
	rng := matrix.NewRNG(10)
	nb := 8
	a := matrix.Random(24, 24, rng)
	want := a.Clone()
	cchk := matrix.NewDense(ColDims(24, 24, nb))
	EncodeCol(OptKernel, 1, a, nb, cchk)
	for j := 0; j < 24; j++ {
		a.Set(13, j, -1e99)
	}
	ReconstructRow(a, nb, cchk, 13, 0, 24)
	if !a.EqualWithin(want, 1e-10) {
		t.Fatal("row reconstruction failed")
	}
}

func TestReconstructPartialRange(t *testing.T) {
	rng := matrix.NewRNG(11)
	nb := 4
	a := matrix.Random(12, 12, rng)
	want := a.Clone()
	rchk := matrix.NewDense(RowDims(12, 12, nb))
	EncodeRow(OptKernel, 1, a, nb, rchk)
	for i := 4; i < 8; i++ {
		a.Set(i, 6, 0)
	}
	ReconstructColumn(a, nb, rchk, 6, 4, 8)
	if !a.EqualWithin(want, 1e-10) {
		t.Fatal("partial reconstruction failed")
	}
}

// Property: encoding is linear — chk(A + B) == chk(A) + chk(B).
func TestEncodeLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		r := 2 + int(seed%16)
		c := 2 + int(seed%12)
		nb := 4
		a := matrix.Random(r, c, rng)
		b := matrix.Random(r, c, rng)
		ca := matrix.NewDense(ColDims(r, c, nb))
		cb := matrix.NewDense(ColDims(r, c, nb))
		EncodeCol(OptKernel, 1, a, nb, ca)
		EncodeCol(OptKernel, 1, b, nb, cb)
		a.Add(b)
		cab := matrix.NewDense(ColDims(r, c, nb))
		EncodeCol(OptKernel, 1, a, nb, cab)
		ca.Add(cb)
		return cab.EqualWithin(ca, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: any single significant corruption is detected and exactly
// located by the dual-weight column checksum.
func TestSingleErrorAlwaysLocated(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		nb := 8
		n := 16
		a := matrix.Random(n, n, rng)
		chk := matrix.NewDense(ColDims(n, n, nb))
		EncodeCol(OptKernel, 1, a, nb, chk)
		i := rng.Intn(n)
		j := rng.Intn(n)
		mag := 1.0 + rng.Float64()*100
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		a.Set(i, j, a.At(i, j)+mag)
		ms := VerifyCol(1, a, nb, chk, 1e-11)
		if len(ms) != 1 || ms[0].Line != j || ms[0].Strip != i/nb {
			return false
		}
		lr, ok := Locate(ms[0], nb)
		return ok && lr == i%nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKernelString(t *testing.T) {
	if GEMMKernel.String() != "gemm" || OptKernel.String() != "opt" {
		t.Fatal("kernel names wrong")
	}
}

func benchEncode(b *testing.B, k Kernel, n, nb, workers int) {
	rng := matrix.NewRNG(1)
	a := matrix.Random(n, n, rng)
	out := matrix.NewDense(ColDims(n, n, nb))
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeCol(k, workers, a, nb, out)
	}
}

func BenchmarkEncodeGEMM1024(b *testing.B) { benchEncode(b, GEMMKernel, 1024, 128, 4) }
func BenchmarkEncodeOpt1024(b *testing.B)  { benchEncode(b, OptKernel, 1024, 128, 4) }
func BenchmarkEncodeGEMM2048(b *testing.B) { benchEncode(b, GEMMKernel, 2048, 256, 4) }
func BenchmarkEncodeOpt2048(b *testing.B)  { benchEncode(b, OptKernel, 2048, 256, 4) }
