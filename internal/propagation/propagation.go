// Package propagation reproduces the paper's systematic error-propagation
// study (§VI): the Maximum Update Dimensions (MUD) analysis of the major
// update operations (Table IV) and the resulting per-fault-kind error
// propagation patterns (Table V), both analytically (the published tables)
// and empirically (by corrupting one element of an operation's input or
// output and measuring the shape of the corruption in the result).
package propagation

import (
	"math"

	"ftla/internal/blas"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
)

// Dim is the propagation dimensionality of §VI.B.
type Dim int

// Propagation degrees.
const (
	// D0: a standalone corrupted element, no propagation.
	D0 Dim = iota
	// D1: corruption confined to (part of) one row or one column.
	D1
	// D2: corruption beyond one row or column.
	D2
)

// String returns the dimensionality's label: "0D", "1D", or "2D".
func (d Dim) String() string {
	switch d {
	case D0:
		return "0D"
	case D1:
		return "1D"
	default:
		return "2D"
	}
}

// Op is a major update operation.
type Op int

// Update operations of the blocked one-sided decompositions.
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

// Part distinguishes reference and update parts.
type Part int

// Operation parts.
const (
	Reference Part = iota
	Update
)

// String returns "ref" for the reference part and "update" for the
// update part.
func (p Part) String() string {
	if p == Reference {
		return "ref"
	}
	return "update"
}

// AnalyticMUD returns the paper's Table IV/V entry: the worst-case
// propagation dimensionality of a single corrupted element in the given
// part of the given operation, considering propagation within that one
// operation only.
func AnalyticMUD(op Op, part Part) Dim {
	switch op {
	case PD:
		// Panel decomposition is a full factorization of the panel: an
		// early pivot/reflector error reaches the whole remaining panel.
		return D2
	case PU:
		if part == Reference {
			// The triangular factor L11 multiplies every column: 2-D.
			return D2
		}
		// An element of the panel being updated feeds exactly one
		// row/column of the solve: 1-D.
		return D1
	default: // TMU
		if part == Reference {
			// A panel element multiplies one row (or column) of the
			// trailing matrix: 1-D.
			return D1
		}
		// Trailing elements are update-only accumulators: 0-D.
		return D0
	}
}

// TableVRow is one row of the reproduced Table V.
type TableVRow struct {
	Op          Op
	Part        Part
	Computation Dim // a computation error appears in the output: 0-D there
	Memory      Dim // memory error in this part, propagated by the op
	TolerableBy string
}

// TableV returns the full reproduction of the paper's Table V.
func TableV() []TableVRow {
	rows := []TableVRow{}
	for _, op := range []Op{PD, PU, TMU} {
		for _, part := range []Part{Reference, Update} {
			mud := AnalyticMUD(op, part)
			tol := "full checksum"
			switch {
			case mud == D0:
				tol = "single-side or full checksum"
			case mud == D2:
				tol = "local restart (detect via checksum)"
			}
			rows = append(rows, TableVRow{
				Op: op, Part: part,
				Computation: D0,
				Memory:      mud,
				TolerableBy: tol,
			})
		}
	}
	return rows
}

// classify measures the corruption shape between got and want: the number
// of distinct rows and columns containing differences above tol.
func classify(got, want *matrix.Dense, tol float64) (Dim, int) {
	rows := map[int]bool{}
	cols := map[int]bool{}
	count := 0
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > tol {
				rows[i] = true
				cols[j] = true
				count++
			}
		}
	}
	switch {
	case count == 0:
		return D0, 0
	case count == 1:
		return D0, 1
	case len(rows) == 1 || len(cols) == 1:
		return D1, count
	default:
		return D2, count
	}
}

// Empirical runs the actual operation twice — clean and with one input
// element corrupted — and classifies the shape of the output divergence.
// It uses the same kernels as the protected factorizations, so the result
// is the measured counterpart of AnalyticMUD. n is the trailing dimension,
// nb the panel width.
func Empirical(op Op, part Part, n, nb int, seed uint64) (Dim, int) {
	rng := matrix.NewRNG(seed)
	const delta = 10.0
	tol := 1e-9
	switch op {
	case PD:
		// GETF2 on a diagonally dominant panel; corrupt an early element.
		a := matrix.RandomDiagDominant(n, rng).View(0, 0, n, nb).Clone()
		want := a.Clone()
		piv := make([]int, nb)
		if err := lapack.Getf2(want, piv); err != nil {
			return D2, -1
		}
		got := a.Clone()
		got.Set(1, 1, got.At(1, 1)+delta)
		piv2 := make([]int, nb)
		if err := lapack.Getf2(got, piv2); err != nil {
			return D2, -1
		}
		return classify(got, want, tol)
	case PU:
		l11 := matrix.Random(nb, nb, rng)
		for i := 0; i < nb; i++ {
			l11.Set(i, i, 4)
		}
		a12 := matrix.Random(nb, n, rng)
		want := a12.Clone()
		blas.Trsm(blas.Left, true, false, true, 1, l11, want)
		got := a12.Clone()
		if part == Reference {
			l11c := l11.Clone()
			l11c.Set(1, 0, l11c.At(1, 0)+delta)
			blas.Trsm(blas.Left, true, false, true, 1, l11c, got)
		} else {
			got.Set(1, 2, got.At(1, 2)+delta)
			blas.Trsm(blas.Left, true, false, true, 1, l11, got)
		}
		return classify(got, want, tol)
	default: // TMU
		l21 := matrix.Random(n, nb, rng)
		u12 := matrix.Random(nb, n, rng)
		c := matrix.Random(n, n, rng)
		want := c.Clone()
		blas.Gemm(false, false, -1, l21, u12, 1, want)
		got := c.Clone()
		if part == Reference {
			l21c := l21.Clone()
			l21c.Set(2, 1, l21c.At(2, 1)+delta)
			blas.Gemm(false, false, -1, l21c, u12, 1, got)
		} else {
			got.Set(3, 4, got.At(3, 4)+delta)
			blas.Gemm(false, false, -1, l21, u12, 1, got)
		}
		return classify(got, want, tol)
	}
}

// TableIVRow is one empirically measured row of Table IV.
type TableIVRow struct {
	Op        Op
	Part      Part
	Analytic  Dim
	Empirical Dim
	Corrupted int // number of corrupted output elements measured
}

// TableIV measures every (op, part) combination and pairs it with the
// analytic prediction.
func TableIV(n, nb int, seed uint64) []TableIVRow {
	var out []TableIVRow
	for _, op := range []Op{PD, PU, TMU} {
		for _, part := range []Part{Reference, Update} {
			if op == PD && part == Reference {
				// PD factors its panel in place; there is no separate
				// reference part (Table IV leaves the cell empty).
				continue
			}
			emp, cnt := Empirical(op, part, n, nb, seed)
			out = append(out, TableIVRow{
				Op: op, Part: part,
				Analytic:  AnalyticMUD(op, part),
				Empirical: emp,
				Corrupted: cnt,
			})
		}
	}
	return out
}
