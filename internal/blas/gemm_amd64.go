package blas

import "ftla/internal/matrix"

// useAVX2 routes gemmRows' NN, TN and NT shapes through the AVX2 kernels
// of gemm_amd64.s. It is fixed at start-up from the CPU and OS feature
// bits; the package tests clear it to run the portable loops as the
// bit-identity reference.
var useAVX2 = hasAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func axpyAVX2(n int, av float64, x, y *float64)

//go:noescape
func nnTile(k int, apk, b *float64, ldb int, c *float64, ldc, n8 int)

//go:noescape
func ntTile(k int, a *float64, lda int, panel, acc *float64)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches (OSXSAVE set, XCR0 enabling the
// XMM and YMM state).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// ntMC is the row depth of one NT accumulator block: its ntMC×8 dot
// products stay in acc while the k-blocks of one column tile stream past.
const ntMC = 64

// gemmAVX2 adds alpha·op(A)·op(B) into the whole 4-row blocks of rows
// [rlo, rhi) of C, for the NN, TN and NT shapes with n ≥ 8 and beta
// already applied. It returns the first row it left to the portable loops.
// Every C element sees exactly the portable loops' operation sequence.
func gemmAVX2(transA, transB bool, alpha float64, a, b, c *matrix.Dense, rlo, rhi, n, k int) int {
	rhi4 := rlo + (rhi-rlo)&^3
	if transB {
		gemmNT(alpha, a, b, c, rlo, rhi4, n, k)
	} else {
		gemmNN(transA, alpha, a, b, c, rlo, rhi4, n, k)
	}
	return rhi4
}

// gemmNN covers the NN and TN shapes. For each k-block and 4-row block it
// packs av = alpha·op(A)(r, p) as the portable loops form it. The p up to
// the last one with a zero av in any of the four rows go row by row
// through axpyAVX2, skipping zero multipliers exactly as the portable
// loops do; the zero-free rest goes through nnTile, with a scalar loop for
// the columns past the last whole 8-column tile.
func gemmNN(transA bool, alpha float64, a, b, c *matrix.Dense, rlo, rhi, n, k int) {
	var apk [kc * 4]float64
	rs, ps := a.Stride, 1
	if transA {
		rs, ps = 1, a.Stride
	}
	n8 := n &^ 7
	for p0 := 0; p0 < k; p0 += kc {
		p1 := min(p0+kc, k)
		for i := rlo; i < rhi; i += 4 {
			last := p0 - 1
			for r := 0; r < 4; r++ {
				at := (i+r)*rs + p0*ps
				for p := p0; p < p1; p++ {
					av := alpha * a.Data[at]
					apk[(p-p0)*4+r] = av
					if av == 0 && p > last {
						last = p
					}
					at += ps
				}
			}
			for r := 0; r < 4; r++ {
				rc := c.Row(i + r)
				for p := p0; p <= last; p++ {
					if av := apk[(p-p0)*4+r]; av != 0 {
						axpyAVX2(n, av, &b.Data[p*b.Stride], &rc[0])
					}
				}
			}
			q := last + 1
			if q == p1 {
				continue
			}
			nnTile(p1-q, &apk[(q-p0)*4], &b.Data[q*b.Stride], b.Stride, &c.Data[i*c.Stride], c.Stride, n8)
			for r := 0; r < 4 && n8 < n; r++ {
				rc := c.Row(i + r)
				for p := q; p < p1; p++ {
					av, rb := apk[(p-p0)*4+r], b.Data[p*b.Stride:]
					for j := n8; j < n; j++ {
						rc[j] += av * rb[j]
					}
				}
			}
		}
	}
}

// gemmNT covers the NT shape. For each 8-column tile of C it packs the
// matching 8 rows of B p-major, one k-block at a time, and ntTile sums the
// 4×8 dot products of each row block into acc, which starts at zero and
// carries across k-blocks; C then takes alpha·s once per element. A last
// partial tile packs fewer rows: its spare lanes hold stale values that
// are never stored.
func gemmNT(alpha float64, a, b, c *matrix.Dense, rlo, rhi, n, k int) {
	var panel [kc * 8]float64
	var acc [ntMC * 8]float64
	for j0 := 0; j0 < n; j0 += 8 {
		nj := min(8, n-j0)
		for i0 := rlo; i0 < rhi; i0 += ntMC {
			i1 := min(i0+ntMC, rhi)
			blk := acc[:(i1-i0)*8]
			clear(blk)
			for p0 := 0; p0 < k; p0 += kc {
				p1 := min(p0+kc, k)
				// With a single k-block, the panel packed for the first
				// row group serves every later one.
				if i0 == rlo || k > kc {
					for jj := 0; jj < nj; jj++ {
						for p, bv := range b.Row(j0 + jj)[p0:p1] {
							panel[p*8+jj] = bv
						}
					}
				}
				for i := i0; i < i1; i += 4 {
					ntTile(p1-p0, &a.Data[i*a.Stride+p0], a.Stride, &panel[0], &blk[(i-i0)*8])
				}
			}
			for i := i0; i < i1; i++ {
				rc, s := c.Row(i)[j0:j0+nj], blk[(i-i0)*8:]
				for jj := range rc {
					rc[jj] += alpha * s[jj]
				}
			}
		}
	}
}
