package blas

import "ftla/internal/matrix"

// Trsv solves op(L or U) * x = b in place, where x starts holding b.
// lower selects the triangle, trans selects op, unit selects an implicit
// unit diagonal.
func Trsv(lower, trans, unit bool, a *matrix.Dense, x []float64) {
	n := a.Rows
	if a.Cols != n || len(x) != n {
		panic("blas: Trsv dimension mismatch")
	}
	switch {
	case lower && !trans:
		for i := 0; i < n; i++ {
			s := x[i]
			row := a.Row(i)
			for j := 0; j < i; j++ {
				s -= row[j] * x[j]
			}
			if !unit {
				s /= row[i]
			}
			x[i] = s
		}
	case lower && trans:
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			for j := i + 1; j < n; j++ {
				s -= a.At(j, i) * x[j]
			}
			if !unit {
				s /= a.At(i, i)
			}
			x[i] = s
		}
	case !lower && !trans:
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			row := a.Row(i)
			for j := i + 1; j < n; j++ {
				s -= row[j] * x[j]
			}
			if !unit {
				s /= row[i]
			}
			x[i] = s
		}
	default: // upper, trans
		for i := 0; i < n; i++ {
			s := x[i]
			for j := 0; j < i; j++ {
				s -= a.At(j, i) * x[j]
			}
			if !unit {
				s /= a.At(i, i)
			}
			x[i] = s
		}
	}
}
