// Package checksum implements the ABFT checksum machinery of the paper:
// dual-weight block checksums (v₁ = [1,1,…]ᵀ, v₂ = [1,2,…]ᵀ), two encoding
// kernels (the GEMM-based baseline of prior work and the paper's optimized
// dedicated kernel, §VIII), verification against round-off bounds,
// single-element error localization and correction (§III.B), and full
// row/column reconstruction from the orthogonal checksum dimension — the
// "1-D propagation" recovery that full-checksum protection enables (§VII).
//
// Checksums are maintained per matrix block: an n×m matrix with block size
// nb is treated as a grid of nb×nb blocks, and every block carries its own
// 2-row column checksum and 2-column row checksum using block-local
// weights 1..nb. Strip s of a column-checksum matrix (rows 2s and 2s+1)
// covers matrix rows [s·nb, (s+1)·nb).
package checksum

import (
	"sync"

	"ftla/internal/blas"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// Process-wide checksum metrics (obs default registry). Encode counts
// include the recomputations VerifyCol/VerifyRow perform internally, so
// the encode rate on /metrics reflects total checksum-kernel pressure,
// not just maintenance encodes.
var (
	encodeOps = obs.Default().CounterVec(obs.MetricChecksumEncodes,
		"Checksum encode operations, labeled by kernel (gemm or opt).", "kernel")
	mismatchCount = obs.Default().Counter(obs.MetricChecksumMismatches,
		"Checksum verification mismatches detected (each is one suspect strip/line pair).")
)

// Kernel selects the checksum-encoding implementation. The zero value is
// OptKernel, the paper's kernel.
type Kernel int

const (
	// OptKernel is the paper's dedicated kernel: a single fused pass that
	// accumulates both weighted sums at once, with the v₂ weights
	// hardcoded (generated in-register rather than loaded) and the matrix
	// streamed tile by tile. On the GPU the paper stages tiles through
	// shared memory with double-buffered prefetch; the cache-tiled
	// traversal below is the CPU analogue.
	OptKernel Kernel = iota
	// GEMMKernel encodes checksums by multiplying with an explicit weight
	// matrix through the general GEMM — the approach of prior work
	// [11][12], which underutilizes the device on this degenerate
	// (2×nb)·(nb×n) shape.
	GEMMKernel
)

// String returns the kernel's short name ("gemm" or "opt"), as used in
// metric labels and benchmark output.
func (k Kernel) String() string {
	if k == GEMMKernel {
		return "gemm"
	}
	return "opt"
}

// Strips returns the number of nb-sized strips covering n rows or columns.
func Strips(n, nb int) int {
	if n <= 0 {
		return 0
	}
	return (n + nb - 1) / nb
}

// ColDims returns the shape of the column-checksum matrix for an r×c
// matrix: two checksum rows per row strip.
func ColDims(r, c, nb int) (int, int) { return 2 * Strips(r, nb), c }

// RowDims returns the shape of the row-checksum matrix for an r×c matrix:
// two checksum columns per column strip.
func RowDims(r, c, nb int) (int, int) { return r, 2 * Strips(c, nb) }

// EncodeCol computes the per-strip column checksums of a into out, which
// must have shape ColDims(a.Rows, a.Cols, nb). For each row strip s and
// column j:
//
//	out(2s,   j) = Σ_i a(s·nb+i, j)            (v₁ weights)
//	out(2s+1, j) = Σ_i (i+1)·a(s·nb+i, j)      (v₂ weights)
func EncodeCol(k Kernel, workers int, a *matrix.Dense, nb int, out *matrix.Dense) {
	wr, wc := ColDims(a.Rows, a.Cols, nb)
	if out.Rows != wr || out.Cols != wc {
		panic("checksum: EncodeCol output has wrong shape")
	}
	encodeOps.With(k.String()).Inc()
	if k == OptKernel {
		// The GEMM path self-reports through blas; the fused kernel does
		// 3 flops per element (two adds, one multiply).
		blas.AddFlops(3 * uint64(a.Rows) * uint64(a.Cols))
	}
	ns := Strips(a.Rows, nb)
	oneStrip := func(s, workers int) {
		lo := s * nb
		hi := lo + nb
		if hi > a.Rows {
			hi = a.Rows
		}
		strip := a.View(lo, 0, hi-lo, a.Cols)
		dst := out.View(2*s, 0, 2, a.Cols)
		switch k {
		case GEMMKernel:
			encodeColGEMM(workers, strip, dst)
		default:
			encodeColOpt(workers, strip, dst)
		}
	}
	if k == OptKernel && ns >= 2 && workers > 1 {
		// Strips are independent; parallelizing across them streams each
		// strip contiguously from one worker (the CPU analogue of one
		// thread block per tile row on the GPU).
		parallelRanges(workers, ns, 1, func(slo, shi int) {
			for s := slo; s < shi; s++ {
				oneStrip(s, 1)
			}
		})
		return
	}
	for s := 0; s < ns; s++ {
		oneStrip(s, workers)
	}
}

// EncodeRow computes the per-strip row checksums of a into out, which must
// have shape RowDims(a.Rows, a.Cols, nb). For each column strip s and row
// i:
//
//	out(i, 2s)   = Σ_j a(i, s·nb+j)            (v₁ weights)
//	out(i, 2s+1) = Σ_j (j+1)·a(i, s·nb+j)      (v₂ weights)
func EncodeRow(k Kernel, workers int, a *matrix.Dense, nb int, out *matrix.Dense) {
	wr, wc := RowDims(a.Rows, a.Cols, nb)
	if out.Rows != wr || out.Cols != wc {
		panic("checksum: EncodeRow output has wrong shape")
	}
	encodeOps.With(k.String()).Inc()
	if k == OptKernel {
		blas.AddFlops(3 * uint64(a.Rows) * uint64(a.Cols))
	}
	ns := Strips(a.Cols, nb)
	for s := 0; s < ns; s++ {
		lo := s * nb
		hi := lo + nb
		if hi > a.Cols {
			hi = a.Cols
		}
		strip := a.View(0, lo, a.Rows, hi-lo)
		dst := out.View(0, 2*s, a.Rows, 2)
		switch k {
		case GEMMKernel:
			encodeRowGEMM(workers, strip, dst)
		default:
			encodeRowOpt(workers, strip, dst)
		}
	}
}

// encodeColGEMM is the baseline: materialize W = [v₁ v₂]ᵀ (2×k) and call
// the general parallel GEMM.
func encodeColGEMM(workers int, a, out *matrix.Dense) {
	w := matrix.NewDense(2, a.Rows)
	for i := 0; i < a.Rows; i++ {
		w.Set(0, i, 1)
		w.Set(1, i, float64(i+1))
	}
	blas.GemmP(workers, false, false, 1, w, a, 0, out)
}

// encodeRowGEMM is the baseline for row checksums: A · [v₁ v₂] via GEMM.
func encodeRowGEMM(workers int, a, out *matrix.Dense) {
	w := matrix.NewDense(a.Cols, 2)
	for j := 0; j < a.Cols; j++ {
		w.Set(j, 0, 1)
		w.Set(j, 1, float64(j+1))
	}
	blas.GemmP(workers, false, false, 1, a, w, 0, out)
}

// colTile is the column-stripe width each worker reduces at a time; it
// keeps both accumulator stripes and the streamed rows inside L1.
const colTile = 512

// encodeColOpt fuses both weighted column sums into one streaming pass over
// the strip, parallel across column stripes.
func encodeColOpt(workers int, a, out *matrix.Dense) {
	c := a.Cols
	run := func(jlo, jhi int) {
		s1 := out.Row(0)[jlo:jhi]
		s2 := out.Row(1)[jlo:jhi]
		for j := range s1 {
			s1[j] = 0
			s2[j] = 0
		}
		i := 0
		for ; i+1 < a.Rows; i += 2 {
			r0 := a.Row(i)[jlo:jhi]
			r1 := a.Row(i + 1)[jlo:jhi]
			w0 := float64(i + 1)
			w1 := float64(i + 2)
			for j, v0 := range r0 {
				v1 := r1[j]
				s1[j] += v0 + v1
				s2[j] += w0*v0 + w1*v1
			}
		}
		if i < a.Rows {
			row := a.Row(i)[jlo:jhi]
			w := float64(i + 1)
			for j, v := range row {
				s1[j] += v
				s2[j] += w * v
			}
		}
	}
	parallelRanges(workers, c, colTile, run)
}

// encodeRowOpt fuses both weighted row sums; weights are generated on the
// fly (never loaded), and rows are split across workers.
func encodeRowOpt(workers int, a, out *matrix.Dense) {
	run := func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			row := a.Row(i)
			s1, s2 := 0.0, 0.0
			for j, v := range row {
				s1 += v
				s2 += float64(j+1) * v
			}
			o := out.Row(i)
			o[0] = s1
			o[1] = s2
		}
	}
	parallelRanges(workers, a.Rows, 128, run)
}

// parallelRanges splits [0, n) into chunks of at least minChunk and runs
// body on up to `workers` goroutines.
func parallelRanges(workers, n, minChunk int, body func(lo, hi int)) {
	if workers <= 1 || n <= minChunk {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < minChunk {
		chunk = minChunk
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
