package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"ftla/internal/blas"
	"ftla/internal/matrix"
)

func TestPotf2Correct(t *testing.T) {
	rng := matrix.NewRNG(1)
	for _, n := range []int{1, 2, 5, 17, 40} {
		a := matrix.RandomSPD(n, rng)
		l := a.Clone()
		if err := Potf2(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := matrix.CholeskyResidual(a, l); r > 1e-12 {
			t.Fatalf("n=%d residual %g", n, r)
		}
	}
}

func TestPotf2NotPositiveDefinite(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if err := Potf2(a); err == nil {
		t.Fatal("expected not-positive-definite error")
	}
}

func TestPotf2PreservesUpper(t *testing.T) {
	rng := matrix.NewRNG(2)
	a := matrix.RandomSPD(6, rng)
	before := a.Clone()
	if err := Potf2(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if a.At(i, j) != before.At(i, j) {
				t.Fatalf("upper triangle modified at (%d,%d)", i, j)
			}
		}
	}
}

func TestGetf2Correct(t *testing.T) {
	rng := matrix.NewRNG(4)
	for _, n := range []int{1, 3, 8, 33} {
		a := matrix.Random(n, n, rng)
		lu := a.Clone()
		piv := make([]int, n)
		if err := Getf2(lu, piv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := matrix.LUResidual(a, lu, piv); r > 1e-11 {
			t.Fatalf("n=%d residual %g", n, r)
		}
	}
}

func TestGetf2PicksLargestPivot(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{1, 2, 3},
		{10, 5, 6},
		{4, 8, 9},
	})
	piv := make([]int, 3)
	if err := Getf2(a, piv); err != nil {
		t.Fatal(err)
	}
	if piv[0] != 1 {
		t.Fatalf("first pivot row = %d, want 1 (largest |a(i,0)|)", piv[0])
	}
	// After the swap, |L| entries must be <= 1.
	for i := 1; i < 3; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a.At(i, j)) > 1+1e-15 {
				t.Fatalf("multiplier (%d,%d) = %g exceeds 1", i, j, a.At(i, j))
			}
		}
	}
}

func TestGetf2Singular(t *testing.T) {
	a := matrix.NewDense(3, 3) // all zeros
	piv := make([]int, 3)
	if err := Getf2(a, piv); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestGetf2Rectangular(t *testing.T) {
	rng := matrix.NewRNG(5)
	// Tall panel, the shape used during panel decomposition.
	m, n := 20, 6
	a := matrix.Random(m, n, rng)
	lu := a.Clone()
	piv := make([]int, n)
	if err := Getf2(lu, piv); err != nil {
		t.Fatal(err)
	}
	// Verify P·A = L·U on the panel.
	pa := a.Clone()
	Laswp(pa, piv)
	l := matrix.NewDense(m, n)
	u := matrix.NewDense(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i > j:
				l.Set(i, j, lu.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, lu.At(i, j))
			default:
				if i < n {
					u.Set(i, j, lu.At(i, j))
				}
			}
		}
	}
	prod := matrix.NewDense(m, n)
	blas.Gemm(false, false, 1, l, u, 0, prod)
	if !prod.EqualWithin(pa, 1e-12) {
		d, i, j := prod.MaxAbsDiff(pa)
		t.Fatalf("panel LU residual %g at (%d,%d)", d, i, j)
	}
}

func TestLaswpRoundTrip(t *testing.T) {
	rng := matrix.NewRNG(7)
	a := matrix.Random(6, 4, rng)
	orig := a.Clone()
	piv := []int{3, 1, 5, 3, 4, 5}
	Laswp(a, piv)
	// Undo in reverse order.
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			a.SwapRows(k, piv[k])
		}
	}
	if !a.Equal(orig) {
		t.Fatal("Laswp round trip failed")
	}
}

func TestGeqr2Correct(t *testing.T) {
	rng := matrix.NewRNG(8)
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {12, 4}, {30, 30}, {16, 9}} {
		m, n := dims[0], dims[1]
		a := matrix.Random(m, n, rng)
		f := a.Clone()
		mn := m
		if n < mn {
			mn = n
		}
		tau := make([]float64, mn)
		Geqr2(f, tau)
		q := BuildQ(f, tau)
		r := ExtractR(f)
		if res := matrix.QRResidual(a, q, r); res > 1e-12 {
			t.Fatalf("%dx%d QR residual %g", m, n, res)
		}
		if res := matrix.OrthoResidual(q); res > 1e-12 {
			t.Fatalf("%dx%d ortho residual %g", m, n, res)
		}
	}
}

func TestGeqr2ZeroColumn(t *testing.T) {
	a := matrix.NewDense(4, 2)
	a.Set(0, 1, 1) // first column entirely zero
	tau := make([]float64, 2)
	Geqr2(a, tau)
	if tau[0] != 0 {
		t.Fatalf("tau for zero column = %g, want 0", tau[0])
	}
}

func TestLarftLarfbConsistent(t *testing.T) {
	rng := matrix.NewRNG(9)
	m, k, n := 14, 5, 7
	panel := matrix.Random(m, k, rng)
	tau := make([]float64, k)
	Geqr2(panel, tau)
	tmat := Larft(panel, tau)

	// Apply Qᵀ to C via Larfb and via one-reflector-at-a-time.
	c1 := matrix.Random(m, n, rng)
	c2 := c1.Clone()
	Larfb(true, panel, tmat, c1)
	// Reference: Qᵀ·C = H_{k−1}···H_0·C.
	for j := 0; j < k; j++ {
		if tau[j] == 0 {
			continue
		}
		v := make([]float64, m)
		v[j] = 1
		for i := j + 1; i < m; i++ {
			v[i] = panel.At(i, j)
		}
		w := make([]float64, n)
		for i := 0; i < m; i++ {
			if v[i] == 0 {
				continue
			}
			row := c2.Row(i)
			for c := 0; c < n; c++ {
				w[c] += v[i] * row[c]
			}
		}
		for i := 0; i < m; i++ {
			tv := tau[j] * v[i]
			if tv == 0 {
				continue
			}
			row := c2.Row(i)
			for c := 0; c < n; c++ {
				row[c] -= tv * w[c]
			}
		}
	}
	if !c1.EqualWithin(c2, 1e-11) {
		d, _, _ := c1.MaxAbsDiff(c2)
		t.Fatalf("Larfb vs reflector-by-reflector diff %g", d)
	}
}

func TestLarfbQThenQTIsIdentity(t *testing.T) {
	rng := matrix.NewRNG(10)
	m, k, n := 12, 4, 6
	panel := matrix.Random(m, k, rng)
	tau := make([]float64, k)
	Geqr2(panel, tau)
	tmat := Larft(panel, tau)
	c := matrix.Random(m, n, rng)
	orig := c.Clone()
	Larfb(true, panel, tmat, c)
	Larfb(false, panel, tmat, c)
	if !c.EqualWithin(orig, 1e-11) {
		t.Fatal("Q·Qᵀ·C != C")
	}
}

func TestGeqrfMatchesGeqr2(t *testing.T) {
	rng := matrix.NewRNG(11)
	m, n := 40, 28
	a := matrix.Random(m, n, rng)
	f := a.Clone()
	tau := make([]float64, n)
	Geqrf(f, 8, tau)
	q := BuildQ(f, tau)
	r := ExtractR(f)
	if res := matrix.QRResidual(a, q, r); res > 1e-12 {
		t.Fatalf("blocked QR residual %g", res)
	}
	if res := matrix.OrthoResidual(q); res > 1e-12 {
		t.Fatalf("blocked ortho residual %g", res)
	}
}

// Property: Cholesky of L·Lᵀ recovers a lower factor with positive
// diagonal and reproduces the product.
func TestCholeskyPropertyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		n := 2 + int(seed%20)
		a := matrix.RandomSPD(n, rng)
		l := a.Clone()
		if err := Potf2(l); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				return false
			}
		}
		return matrix.CholeskyResidual(a, l) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: LU with partial pivoting keeps all multipliers bounded by 1.
func TestLUMultiplierBoundQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		n := 2 + int(seed%24)
		a := matrix.Random(n, n, rng)
		piv := make([]int, n)
		if err := Getf2(a, piv); err != nil {
			return true // singular random draw: vacuously fine
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(a.At(i, j)) > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: QR preserves column norms of A in R (|R column norm| equals
// |A column norm| since Q is orthogonal).
func TestQRNormPreservationQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := matrix.NewRNG(seed)
		m := 3 + int(seed%12)
		n := 1 + int(seed%uint64(m))
		a := matrix.Random(m, int(n), rng)
		f2 := a.Clone()
		tau := make([]float64, n)
		Geqr2(f2, tau)
		r := ExtractR(f2)
		for j := 0; j < int(n); j++ {
			na := matrix.VecNorm2(a.Col(j))
			nr := matrix.VecNorm2(r.Col(j))
			if math.Abs(na-nr) > 1e-10*(1+na) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
