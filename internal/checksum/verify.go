package checksum

import (
	"math"

	"ftla/internal/matrix"
)

// Mismatch reports one checksummed line of one strip whose maintained
// checksum disagrees with the recomputed one beyond tolerance. For column
// checksums the strip is a row strip and the line a global column; for row
// checksums the strip is a column strip and the line a global row.
type Mismatch struct {
	Strip int     // strip index
	Line  int     // global column (VerifyCol) or row (VerifyRow) index
	D1    float64 // maintained − recomputed, v₁ weights
	D2    float64 // maintained − recomputed, v₂ weights
}

// VerifyCol recomputes the column checksums of a and returns every
// (strip, column) where either weighted sum deviates from the maintained
// checksum chk beyond tolerance (the v₂ line uses nb·tol since its
// round-off scales with the weights). Checking both weights closes the
// blind spot where corruptions cancel in the plain sum but not in the
// weighted one. The recomputation uses the optimized kernel: verification
// is the hot path the paper's kernel accelerates.
func VerifyCol(workers int, a *matrix.Dense, nb int, chk *matrix.Dense, tol float64) []Mismatch {
	recal := matrix.NewDense(ColDims(a.Rows, a.Cols, nb))
	EncodeCol(OptKernel, workers, a, nb, recal)
	var out []Mismatch
	tol2 := tol * float64(nb)
	ns := Strips(a.Rows, nb)
	for s := 0; s < ns; s++ {
		m1, r1 := chk.Row(2*s), recal.Row(2*s)
		m2, r2 := chk.Row(2*s+1), recal.Row(2*s+1)
		for j := range m1 {
			d1 := m1[j] - r1[j]
			d2 := m2[j] - r2[j]
			if math.Abs(d1) > tol || math.Abs(d2) > tol2 || math.IsNaN(d1) || math.IsNaN(d2) {
				out = append(out, Mismatch{Strip: s, Line: j, D1: d1, D2: d2})
			}
		}
	}
	mismatchCount.Add(uint64(len(out)))
	return out
}

// VerifyRow is VerifyCol for the row-checksum dimension.
func VerifyRow(workers int, a *matrix.Dense, nb int, chk *matrix.Dense, tol float64) []Mismatch {
	recal := matrix.NewDense(RowDims(a.Rows, a.Cols, nb))
	EncodeRow(OptKernel, workers, a, nb, recal)
	var out []Mismatch
	tol2 := tol * float64(nb)
	ns := Strips(a.Cols, nb)
	for i := 0; i < a.Rows; i++ {
		m, r := chk.Row(i), recal.Row(i)
		for s := 0; s < ns; s++ {
			d1 := m[2*s] - r[2*s]
			d2 := m[2*s+1] - r[2*s+1]
			if math.Abs(d1) > tol || math.Abs(d2) > tol2 || math.IsNaN(d1) || math.IsNaN(d2) {
				out = append(out, Mismatch{Strip: s, Line: i, D1: d1, D2: d2})
			}
		}
	}
	mismatchCount.Add(uint64(len(out)))
	return out
}

// Locate resolves a mismatch to the corrupted element's index within the
// strip (round(δ₂/δ₁) − 1, §III.B): the local row of a column mismatch, the
// local column of a row mismatch. ok is false when the ratio does not land
// near an integer inside the strip's stripLen elements — the signature of
// multi-element corruption (1-D/2-D propagation) rather than a single
// flipped element.
func Locate(m Mismatch, stripLen int) (local int, ok bool) {
	if m.D1 == 0 || math.IsNaN(m.D1) || math.IsNaN(m.D2) {
		return 0, false
	}
	ratio := m.D2 / m.D1
	r := math.Round(ratio)
	if math.Abs(ratio-r) > 0.25 {
		return 0, false
	}
	local = int(r) - 1
	if local < 0 || local >= stripLen {
		return 0, false
	}
	return local, true
}

// CorrectCol repairs the single corrupted element identified by the column
// mismatch m at local row lr: the maintained checksum is authoritative, so
// the element gains δ₁.
func CorrectCol(a *matrix.Dense, nb int, m Mismatch, lr int) {
	i := m.Strip*nb + lr
	a.Set(i, m.Line, a.At(i, m.Line)+m.D1)
}

// CorrectRow repairs the single corrupted element identified by the row
// mismatch m at local column lc.
func CorrectRow(a *matrix.Dense, nb int, m Mismatch, lc int) {
	j := m.Strip*nb + lc
	a.Set(m.Line, j, a.At(m.Line, j)+m.D1)
}

// ReconstructColumn rebuilds every element of global column j of a from
// the v₁ row checksums (rowChk, shape RowDims), overwriting the column.
// This is the full-checksum recovery for a 1-D column corruption: each
// element is the row checksum minus the surviving elements of its block
// row. Rows [rlo, rhi) are reconstructed.
func ReconstructColumn(a *matrix.Dense, nb int, rowChk *matrix.Dense, j, rlo, rhi int) {
	s := j / nb
	clo := s * nb
	chi := clo + nb
	if chi > a.Cols {
		chi = a.Cols
	}
	for i := rlo; i < rhi; i++ {
		row := a.Row(i)
		sum := 0.0
		for c := clo; c < chi; c++ {
			if c != j {
				sum += row[c]
			}
		}
		row[j] = rowChk.At(i, 2*s) - sum
	}
}

// ReconstructRow rebuilds every element of global row i of a from the v₁
// column checksums (colChk, shape ColDims), overwriting columns
// [clo, chi).
func ReconstructRow(a *matrix.Dense, nb int, colChk *matrix.Dense, i, clo, chi int) {
	s := i / nb
	rlo := s * nb
	rhi := rlo + nb
	if rhi > a.Rows {
		rhi = a.Rows
	}
	row := a.Row(i)
	for j := clo; j < chi; j++ {
		sum := 0.0
		for r := rlo; r < rhi; r++ {
			if r != i {
				sum += a.At(r, j)
			}
		}
		row[j] = colChk.At(2*s, j) - sum
	}
}
