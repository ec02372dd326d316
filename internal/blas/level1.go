// Package blas implements the subset of Level-1/2/3 BLAS needed by the
// blocked one-sided matrix decompositions in this repository. Matrices are
// the row-major views of internal/matrix; the Level-3 routines are cache
// tiled and optionally goroutine-parallel so that the simulated GPU devices
// in internal/hetsim execute real parallel kernels rather than timing
// models.
package blas

import (
	"math"

	"ftla/internal/matrix"
)

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Iamax returns the index of the element of x with the largest absolute
// value, or -1 for an empty vector. Ties resolve to the lowest index, as in
// reference BLAS.
func Iamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := math.Abs(x[0]), 0
	for i := 1; i < len(x); i++ {
		if a := math.Abs(x[i]); a > best {
			best, bi = a, i
		}
	}
	return bi
}

// IamaxCol returns the row index (relative to the view) of the largest
// absolute value in column j of a, scanning rows [i0, a.Rows).
func IamaxCol(a *matrix.Dense, j, i0 int) int {
	best, bi := -1.0, -1
	for i := i0; i < a.Rows; i++ {
		if v := math.Abs(a.At(i, j)); v > best {
			best, bi = v, i
		}
	}
	return bi
}
