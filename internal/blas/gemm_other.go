//go:build !amd64

package blas

import "ftla/internal/matrix"

// useAVX2 is false off amd64: gemmRows runs its portable loops only.
var useAVX2 = false

// gemmAVX2 has no kernels to run here; it leaves every row to the
// portable loops.
func gemmAVX2(transA, transB bool, alpha float64, a, b, c *matrix.Dense, rlo, rhi, n, k int) int {
	return rlo
}
