package lapack

import (
	"fmt"

	"ftla/internal/blas"
	"ftla/internal/matrix"
)

// Getf2 computes an unblocked LU factorization with partial pivoting of the
// m-by-n panel a in place: A = P·L·U with L unit lower triangular. piv must
// have length min(m, n); on return piv[k] is the (view-relative) row index
// swapped with row k at elimination step k.
func Getf2(a *matrix.Dense, piv []int) error {
	m, n := a.Rows, a.Cols
	mn := m
	if n < mn {
		mn = n
	}
	if len(piv) != mn {
		panic("lapack: Getf2 pivot slice has wrong length")
	}
	for k := 0; k < mn; k++ {
		p := blas.IamaxCol(a, k, k)
		piv[k] = p
		if a.At(p, k) == 0 {
			return fmt.Errorf("lapack: matrix is singular at column %d", k)
		}
		if p != k {
			a.SwapRows(k, p)
		}
		pivot := a.At(k, k)
		for i := k + 1; i < m; i++ {
			l := a.At(i, k) / pivot
			a.Set(i, k, l)
			rowi := a.Row(i)
			rowk := a.Row(k)
			for j := k + 1; j < n; j++ {
				rowi[j] -= l * rowk[j]
			}
		}
	}
	return nil
}

// Laswp applies the row interchanges piv (as produced by Getf2 over rows
// [0, len(piv))) to a, forward order.
func Laswp(a *matrix.Dense, piv []int) {
	for k, p := range piv {
		if p != k {
			a.SwapRows(k, p)
		}
	}
}
