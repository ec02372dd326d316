package blas

import (
	"math"
	"testing"
	"testing/quick"

	"ftla/internal/matrix"
)

// refGemm is a dependency-free reference multiply used to validate the
// optimized kernels.
func refGemm(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	opA, opB := a, b
	if transA {
		opA = a.T()
	}
	if transB {
		opB = b.T()
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for p := 0; p < opA.Cols; p++ {
				s += opA.At(i, p) * opB.At(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestIamaxCol(t *testing.T) {
	a := matrix.FromRows([][]float64{{9, 1}, {2, -8}, {3, 4}})
	if got := IamaxCol(a, 1, 0); got != 1 {
		t.Fatalf("IamaxCol = %d, want 1", got)
	}
	if got := IamaxCol(a, 0, 1); got != 2 {
		t.Fatalf("IamaxCol from row 1 = %d, want 2", got)
	}
}

func gemmCase(t *testing.T, transA, transB bool, m, n, k int, alpha, beta float64, seed uint64) {
	t.Helper()
	rng := matrix.NewRNG(seed)
	a, b := gemmOperands(transA, transB, m, n, k, rng)
	c := matrix.Random(m, n, rng)
	want := c.Clone()
	refGemm(transA, transB, alpha, a, b, beta, want)
	Gemm(transA, transB, alpha, a, b, beta, c)
	if !c.EqualWithin(want, 1e-11*float64(k+1)) {
		d, i, j := c.MaxAbsDiff(want)
		t.Fatalf("Gemm(tA=%v,tB=%v,%dx%dx%d) diff %g at (%d,%d)", transA, transB, m, n, k, d, i, j)
	}
}

func TestGemmAllTransCombos(t *testing.T) {
	for _, tA := range []bool{false, true} {
		for _, tB := range []bool{false, true} {
			gemmCase(t, tA, tB, 7, 5, 9, 1.5, 0.5, 1)
			gemmCase(t, tA, tB, 1, 1, 1, 2, 0, 2)
			gemmCase(t, tA, tB, 16, 16, 16, -1, 1, 3)
		}
	}
}

func TestGemmKBlocked(t *testing.T) {
	// k > kc exercises the cache-blocked path.
	gemmCase(t, false, false, 8, 8, kc+17, 1, 1, 4)
}

func TestGemmBetaZeroClearsNaN(t *testing.T) {
	a := matrix.NewDense(2, 2)
	b := matrix.NewDense(2, 2)
	c := matrix.NewDense(2, 2)
	c.Set(0, 0, math.NaN())
	Gemm(false, false, 1, a, b, 0, c)
	if math.IsNaN(c.At(0, 0)) {
		t.Fatal("beta=0 must overwrite, not scale, NaN entries")
	}
}

func TestGemmDimensionPanics(t *testing.T) {
	a := matrix.NewDense(2, 3)
	b := matrix.NewDense(4, 2) // inner mismatch
	c := matrix.NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	Gemm(false, false, 1, a, b, 0, c)
}

func TestGemmPMatchesSequential(t *testing.T) {
	const m, n, k = 67, 56, 48
	for _, kernels := range gemmPaths() {
		for _, tA := range []bool{false, true} {
			for _, tB := range []bool{false, true} {
				rng := matrix.NewRNG(9)
				a, b := gemmOperands(tA, tB, m, n, k, rng)
				want := matrix.Random(m, n, rng)
				c := want.Clone()
				withKernels(kernels, func() { Gemm(tA, tB, 1.2, a, b, 0.7, want) })
				for workers := 1; workers <= 5; workers++ {
					got := c.Clone()
					withKernels(kernels, func() { GemmP(workers, tA, tB, 1.2, a, b, 0.7, got) })
					if i, ok := sameBits(got.Data, want.Data); !ok {
						t.Fatalf("kernels=%v tA=%v tB=%v workers=%d: element %d differs from sequential", kernels, tA, tB, workers, i)
					}
				}
			}
		}
	}
}

// gemmPaths lists the settings of the kernel switch this machine can run:
// the portable loops always, the AVX2 kernels where the CPU has them.
func gemmPaths() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// withKernels runs f with the AVX2 kernel switch set to on.
func withKernels(on bool, f func()) {
	saved := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = saved }()
	f()
}

// sameBits reports whether x and y hold the same float64 bit patterns,
// and the first index where they do not.
func sameBits(x, y []float64) (int, bool) {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i, false
		}
	}
	return -1, len(x) == len(y)
}

// gemmOperands draws A and B for C(m×n) = op(A)·op(B) with inner size k.
func gemmOperands(transA, transB bool, m, n, k int, rng *matrix.RNG) (a, b *matrix.Dense) {
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	return matrix.Random(ar, ac, rng), matrix.Random(br, bc, rng)
}

// stridedView copies x into the interior of a larger random matrix and
// returns the view, so rows carry a stride wider than the row and the
// view starts away from its backing store's origin. C gets the same
// padding in TestGemmKernelsBitIdentical.
func stridedView(x *matrix.Dense, rng *matrix.RNG) *matrix.Dense {
	v := matrix.Random(x.Rows+2, x.Cols+3, rng).View(1, 2, x.Rows, x.Cols)
	v.CopyFrom(x)
	return v
}

// TestGemmKernelsBitIdentical pins the AVX2 kernels to the portable loops
// bit for bit across all four transpose cases, tile-edge shapes, k past
// one cache block, strided views and the alpha/beta special values. Every
// other A is sprinkled with exact zeros so the zero-multiplier skip runs
// beside the tile, and the whole backing store of C is compared so a
// write outside the view shows.
func TestGemmKernelsBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this machine")
	}
	seed := uint64(100)
	for _, tA := range []bool{false, true} {
		for _, tB := range []bool{false, true} {
			for _, m := range []int{1, 3, 4, 7, 33} {
				for _, n := range []int{1, 7, 8, 9, 355} {
					for _, k := range []int{1, 64, kc + 17} {
						seed++
						rng := matrix.NewRNG(seed)
						a, b := gemmOperands(tA, tB, m, n, k, rng)
						if seed%2 == 0 {
							for i := range a.Data {
								if rng.Float64() < 0.05 {
									a.Data[i] = 0
								}
							}
						}
						a, b = stridedView(a, rng), stridedView(b, rng)
						cBack := matrix.Random(m+2, n+3, rng)
						for _, alpha := range []float64{1, -1, 0.37} {
							for _, beta := range []float64{0, 0.5, 1} {
								ref, got := cBack.Clone(), cBack.Clone()
								withKernels(false, func() { Gemm(tA, tB, alpha, a, b, beta, ref.View(1, 2, m, n)) })
								Gemm(tA, tB, alpha, a, b, beta, got.View(1, 2, m, n))
								if i, ok := sameBits(got.Data, ref.Data); !ok {
									t.Fatalf("tA=%v tB=%v %dx%dx%d alpha=%v beta=%v: element %d is %v, portable loops give %v",
										tA, tB, m, n, k, alpha, beta, i, got.Data[i], ref.Data[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmZeroMultiplierSkip pins the exact skip of a zero alpha·A(i,p)
// in the NN and TN shapes, which differs from adding 0·B(p,:): a −0 in C
// stays −0, an Inf or NaN in a skipped B row never reaches C, and an
// alpha·A product that underflows to zero is skipped too. The first
// 4-row block has a zero multiplier at the last p, so the kernels run it
// on skip rows alone; the second has its last at p=2, so it splits
// between skip rows and the tile. C has 12 columns: one whole 8-column
// tile and a scalar tail.
func TestGemmZeroMultiplierSkip(t *testing.T) {
	const m, n, k = 8, 12, 6
	inf := math.Inf(1)
	// op(A) rows: row 0 is all zero multipliers; rows 1 and 5 are zero at
	// p=1 (the Inf/NaN row of B), row 5 at p=2 too; under the tiny alpha,
	// row 2 underflows to zero at p=1 and p=5. The rest are nonzero.
	opA := matrix.NewDense(m, k)
	for i := 1; i < m; i++ {
		for p := 0; p < k; p++ {
			opA.Set(i, p, float64(i+p+1))
		}
	}
	opA.Set(1, 1, 0)
	opA.Set(2, 1, 1e-300)
	opA.Set(2, 5, -1e-300)
	opA.Set(5, 1, 0)
	opA.Set(5, 2, 0)
	b := matrix.NewDense(k, n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			b.Set(p, j, float64(j-p))
		}
	}
	for j := 0; j < n; j++ {
		b.Set(1, j, []float64{inf, -inf, math.NaN()}[j%3])
	}
	for _, kernels := range gemmPaths() {
		for _, transA := range []bool{false, true} {
			a := opA
			if transA {
				a = opA.T()
			}
			c := matrix.NewDense(m, n)
			c.Fill(math.Copysign(0, -1))
			withKernels(kernels, func() { Gemm(transA, false, 1e-300, a, b, 1, c) })
			for j := 0; j < n; j++ {
				if v := c.At(0, j); v != 0 || !math.Signbit(v) {
					t.Fatalf("kernels=%v transA=%v: C(0,%d) = %v, want -0 (every multiplier skipped)", kernels, transA, j, v)
				}
				for i := 1; i < m; i++ {
					skipped := i == 1 || i == 2 || i == 5
					if v := c.At(i, j); skipped != !(math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Fatalf("kernels=%v transA=%v: C(%d,%d) = %v, want finite only where the Inf/NaN row is skipped", kernels, transA, i, j, v)
					}
				}
			}
		}
	}
}

func TestGemmOnViews(t *testing.T) {
	rng := matrix.NewRNG(13)
	big := matrix.Random(20, 20, rng)
	a := big.View(0, 0, 6, 8)
	b := big.View(6, 4, 8, 5)
	c := matrix.NewDense(6, 5)
	want := matrix.NewDense(6, 5)
	refGemm(false, false, 1, a.Clone(), b.Clone(), 0, want)
	Gemm(false, false, 1, a, b, 0, c)
	if !c.EqualWithin(want, 1e-12) {
		t.Fatal("Gemm on strided views wrong")
	}
}

func trsmCase(t *testing.T, side Side, lower, trans, unit bool, n, nrhs int, seed uint64) {
	t.Helper()
	rng := matrix.NewRNG(seed)
	a := matrix.Random(n, n, rng)
	// Make the referenced triangle well conditioned.
	for i := 0; i < n; i++ {
		a.Set(i, i, 4+rng.Float64())
	}
	var b *matrix.Dense
	if side == Left {
		b = matrix.Random(n, nrhs, rng)
	} else {
		b = matrix.Random(nrhs, n, rng)
	}
	orig := b.Clone()
	Trsm(side, lower, trans, unit, 1, a, b)
	// Rebuild op(A) restricted to the referenced triangle (+ unit diag).
	tri := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (lower && j < i) || (!lower && j > i)
			if i == j {
				if unit {
					tri.Set(i, j, 1)
				} else {
					tri.Set(i, j, a.At(i, j))
				}
			} else if inTri {
				tri.Set(i, j, a.At(i, j))
			}
		}
	}
	var prod *matrix.Dense
	if side == Left {
		prod = matrix.NewDense(n, nrhs)
		refGemm(trans, false, 1, tri, b, 0, prod)
	} else {
		prod = matrix.NewDense(nrhs, n)
		refGemm(false, trans, 1, b, tri, 0, prod)
	}
	if !prod.EqualWithin(orig, 1e-10) {
		d, _, _ := prod.MaxAbsDiff(orig)
		t.Fatalf("Trsm(side=%v lower=%v trans=%v unit=%v) residual %g", side, lower, trans, unit, d)
	}
}

func TestTrsmAllVariants(t *testing.T) {
	seed := uint64(1)
	for _, side := range []Side{Left, Right} {
		for _, lower := range []bool{true, false} {
			for _, trans := range []bool{true, false} {
				for _, unit := range []bool{true, false} {
					trsmCase(t, side, lower, trans, unit, 9, 6, seed)
					seed++
				}
			}
		}
	}
}

func TestTrsmAlpha(t *testing.T) {
	rng := matrix.NewRNG(77)
	n := 5
	a := matrix.Random(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, 3)
	}
	b := matrix.Random(n, 4, rng)
	b2 := b.Clone()
	Trsm(Left, true, false, false, 2, a, b)
	Trsm(Left, true, false, false, 1, a, b2)
	b2.Scale(2)
	if !b.EqualWithin(b2, 1e-12) {
		t.Fatal("alpha scaling in Trsm wrong")
	}
}

func TestTrsmPMatchesSequential(t *testing.T) {
	rng := matrix.NewRNG(21)
	n := 32
	a := matrix.Random(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, 5)
	}
	b1 := matrix.Random(n, 40, rng)
	b2 := b1.Clone()
	Trsm(Left, true, false, false, 1, a, b1)
	TrsmP(4, Left, true, false, false, 1, a, b2)
	if !b1.EqualWithin(b2, 1e-13) {
		t.Fatal("TrsmP disagrees with Trsm")
	}
	b3 := matrix.Random(40, n, rng)
	b4 := b3.Clone()
	Trsm(Right, false, true, false, 1, a, b3)
	TrsmP(4, Right, false, true, false, 1, a, b4)
	if !b3.EqualWithin(b4, 1e-13) {
		t.Fatal("TrsmP Right disagrees with Trsm")
	}
}

func TestSyrkLowerNoTrans(t *testing.T) {
	rng := matrix.NewRNG(31)
	n, k := 8, 5
	a := matrix.Random(n, k, rng)
	c := matrix.Random(n, n, rng)
	want := c.Clone()
	refGemm(false, true, 1.5, a, a, 0.5, want)
	Syrk(true, false, 1.5, a, 0.5, c)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("Syrk lower wrong at (%d,%d)", i, j)
			}
		}
		for j := i + 1; j < n; j++ {
			// strict upper must be untouched — compare against pre-Syrk C.
			_ = j
		}
	}
}

func TestSyrkUpperTouchesOnlyUpper(t *testing.T) {
	rng := matrix.NewRNG(37)
	n, k := 6, 4
	a := matrix.Random(k, n, rng) // trans=true: C = AᵀA
	c := matrix.Random(n, n, rng)
	before := c.Clone()
	Syrk(false, true, 1, a, 1, c)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if c.At(i, j) != before.At(i, j) {
				t.Fatalf("Syrk upper modified lower triangle at (%d,%d)", i, j)
			}
		}
	}
	want := before.Clone()
	refGemm(true, false, 1, a, a, 1, want)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("Syrk upper value wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSyrkPMatchesSequential(t *testing.T) {
	rng := matrix.NewRNG(41)
	n, k := 48, 16
	a := matrix.Random(n, k, rng)
	c1 := matrix.Random(n, n, rng)
	c2 := c1.Clone()
	Syrk(true, false, -1, a, 1, c1)
	SyrkP(4, true, false, -1, a, 1, c2)
	if !c1.EqualWithin(c2, 1e-13) {
		t.Fatal("SyrkP disagrees with Syrk")
	}
}

// Property: Gemm is linear in alpha.
func TestGemmAlphaLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		m, n, k := 3+int(seed%5), 3+int(seed%4), 3+int(seed%6)
		a := matrix.Random(m, k, rng)
		b := matrix.Random(k, n, rng)
		c1 := matrix.NewDense(m, n)
		c2 := matrix.NewDense(m, n)
		Gemm(false, false, 2, a, b, 0, c1)
		Gemm(false, false, 1, a, b, 0, c2)
		c2.Scale(2)
		return c1.EqualWithin(c2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ via the kernel's trans paths.
func TestGemmTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		m, n, k := 2+int(seed%6), 2+int(seed%5), 2+int(seed%7)
		a := matrix.Random(m, k, rng)
		b := matrix.Random(k, n, rng)
		ab := matrix.NewDense(m, n)
		Gemm(false, false, 1, a, b, 0, ab)
		btat := matrix.NewDense(n, m)
		Gemm(true, true, 1, b, a, 0, btat)
		return ab.T().EqualWithin(btat, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemmSequential256(b *testing.B) {
	rng := matrix.NewRNG(1)
	x := matrix.Random(256, 256, rng)
	y := matrix.Random(256, 256, rng)
	c := matrix.NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, x, y, 0, c)
	}
}

func BenchmarkGemmParallel256(b *testing.B) {
	rng := matrix.NewRNG(1)
	x := matrix.Random(256, 256, rng)
	y := matrix.Random(256, 256, rng)
	c := matrix.NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmP(8, false, false, 1, x, y, 0, c)
	}
}
