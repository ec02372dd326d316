// Package lapack implements the unblocked panel kernels (POTF2, GETF2,
// GEQR2, LARFT, LARFB, LASWP) that the blocked, checksum-protected
// factorizations in internal/core are built from, plus the blocked QR
// driver core's tests use as their reference.
package lapack

import (
	"fmt"
	"math"

	"ftla/internal/matrix"
)

// Potf2 computes the unblocked lower Cholesky factorization A = L·Lᵀ in
// place: on return the lower triangle of a holds L and the strict upper
// triangle is untouched. It returns an error if a is not positive
// definite.
func Potf2(a *matrix.Dense) error {
	n := a.Rows
	if a.Cols != n {
		panic("lapack: Potf2 matrix not square")
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		rowj := a.Row(j)
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("lapack: matrix not positive definite at column %d (pivot %g)", j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			rowi := a.Row(i)
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			a.Set(i, j, s/d)
		}
	}
	return nil
}
