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
