package blas

import (
	"sync"

	"ftla/internal/matrix"
)

// kc is the k-dimension cache-blocking factor of the NN loop and of the
// AVX2 kernels' packed panels. It keeps the streamed panel of B within
// L2-sized working sets on typical cores.
const kc = 256

// Gemm computes C = alpha*op(A)*op(B) + beta*C sequentially.
// op(X) is X when the corresponding trans flag is false and Xᵀ otherwise.
func Gemm(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	_, _, k := opDims(transA, transB, a, b, c)
	AddFlops(2 * uint64(c.Rows) * uint64(c.Cols) * uint64(k))
	gemmRows(transA, transB, alpha, a, b, beta, c, 0, c.Rows)
}

// GemmP is Gemm parallelized over row stripes of C using up to `workers`
// goroutines. workers <= 1 degrades to the sequential path.
func GemmP(workers int, transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	if workers <= 1 || c.Rows < 2*workers {
		Gemm(transA, transB, alpha, a, b, beta, c)
		return
	}
	_, _, k := opDims(transA, transB, a, b, c)
	AddFlops(2 * uint64(c.Rows) * uint64(c.Cols) * uint64(k))
	var wg sync.WaitGroup
	// Stripes are whole 4-row blocks, so every worker tiles fully; the
	// split never changes the bits.
	chunk := ((c.Rows+workers-1)/workers + 3) &^ 3
	for lo := 0; lo < c.Rows; lo += chunk {
		hi := lo + chunk
		if hi > c.Rows {
			hi = c.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRows(transA, transB, alpha, a, b, beta, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmRows computes rows [rlo, rhi) of C. The four transpose combinations
// are specialized so the inner loops stream rows of the row-major operands.
// Where the AVX2 kernels apply (NN, TN and NT with at least 8 columns of
// C), they take the whole 4-row blocks first; the loops below finish the
// rest and stay the portable path and the bit-identity reference.
func gemmRows(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, rlo, rhi int) {
	_, n, k := opDims(transA, transB, a, b, c)
	if rhi > c.Rows {
		rhi = c.Rows
	}
	if beta != 1 {
		for i := rlo; i < rhi; i++ {
			row := c.Row(i)
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	if useAVX2 && n >= 8 && !(transA && transB) {
		rlo = gemmAVX2(transA, transB, alpha, a, b, c, rlo, rhi, n, k)
	}
	switch {
	case !transA && !transB:
		// C[i,:] += alpha * A[i,p] * B[p,:], k-blocked.
		for p0 := 0; p0 < k; p0 += kc {
			p1 := p0 + kc
			if p1 > k {
				p1 = k
			}
			for i := rlo; i < rhi; i++ {
				ra := a.Row(i)
				rc := c.Row(i)
				for p := p0; p < p1; p++ {
					av := alpha * ra[p]
					if av == 0 {
						continue
					}
					rb := b.Row(p)
					for j, bv := range rb {
						rc[j] += av * bv
					}
				}
			}
		}
	case transA && !transB:
		// C[i,:] += alpha * A[p,i] * B[p,:].
		for p := 0; p < k; p++ {
			ra := a.Row(p)
			rb := b.Row(p)
			for i := rlo; i < rhi; i++ {
				av := alpha * ra[i]
				if av == 0 {
					continue
				}
				rc := c.Row(i)
				for j, bv := range rb {
					rc[j] += av * bv
				}
			}
		}
	case !transA && transB:
		// C[i,j] += alpha * dot(A[i,:], B[j,:]).
		for i := rlo; i < rhi; i++ {
			ra := a.Row(i)
			rc := c.Row(i)
			for j := 0; j < n; j++ {
				rb := b.Row(j)
				s := 0.0
				for p, av := range ra {
					s += av * rb[p]
				}
				rc[j] += alpha * s
			}
		}
	default: // transA && transB
		// C[i,j] += alpha * A[p,i] * B[j,p], reading A down column i.
		for i := rlo; i < rhi; i++ {
			rc := c.Row(i)
			for j := 0; j < n; j++ {
				s := 0.0
				for p, bv := range b.Row(j) {
					s += a.Data[p*a.Stride+i] * bv
				}
				rc[j] += alpha * s
			}
		}
	}
}

// opDims validates operand shapes and returns (m, n, k) for
// C(m×n) = op(A)(m×k) · op(B)(k×n).
func opDims(transA, transB bool, a, b, c *matrix.Dense) (m, n, k int) {
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic("blas: Gemm dimension mismatch")
	}
	return am, bn, ak
}
