package ftla

import (
	"fmt"

	"ftla/internal/blas"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
)

// CholeskyResult holds a protected Cholesky factorization A = L·Lᵀ.
type CholeskyResult struct {
	// L is the lower-triangular factor (entries above the diagonal are
	// residual input values and should be ignored).
	L *Matrix
	// Report is the run's verification/recovery statistics.
	Report *Report
}

// Cholesky computes the protected Cholesky factorization of the symmetric
// positive definite matrix a.
func Cholesky(a *Matrix, cfg Config) (*CholeskyResult, error) {
	sc, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	return CholeskyOn(hetsim.New(sc), a, cfg)
}

// CholeskyOn is Cholesky running on a caller-provided simulated system
// instead of constructing a fresh one — the amortization hook for serving
// layers that pool systems across jobs (cfg.System/cfg.GPUs are ignored;
// the caller picked the platform). The caller is responsible for handing in
// a clean system (see hetsim.System.Reset).
func CholeskyOn(sys *hetsim.System, a *Matrix, cfg Config) (*CholeskyResult, error) {
	_, opts := cfg.normalize()
	out, res, err := core.Cholesky(sys, a, opts)
	if err != nil {
		return nil, err
	}
	return &CholeskyResult{L: out, Report: res}, nil
}

// Solve solves A·x = b using the factor: L·y = b then Lᵀ·x = y.
func (r *CholeskyResult) Solve(b []float64) ([]float64, error) {
	n := r.L.Rows
	if len(b) != n {
		return nil, fmt.Errorf("ftla: rhs length %d != %d", len(b), n)
	}
	x := append([]float64(nil), b...)
	blas.Trsv(true, false, false, r.L, x)
	blas.Trsv(true, true, false, r.L, x)
	return x, nil
}

// Residual returns ‖A − L·Lᵀ‖_F / ‖A‖_F against the original matrix.
func (r *CholeskyResult) Residual(a *Matrix) float64 {
	return matrix.CholeskyResidual(a, r.L)
}

// LUResult holds a protected LU factorization P·A = L·U.
type LUResult struct {
	// Factors packs unit-lower L below the diagonal and U on/above it.
	Factors *Matrix
	// Pivots records the row interchanges: row k was swapped with
	// Pivots[k] at step k.
	Pivots []int
	// Report is the run's verification/recovery statistics.
	Report *Report
}

// LU computes the protected LU factorization with partial pivoting of a.
func LU(a *Matrix, cfg Config) (*LUResult, error) {
	sc, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	return LUOn(hetsim.New(sc), a, cfg)
}

// LUOn is LU running on a caller-provided simulated system; see CholeskyOn.
func LUOn(sys *hetsim.System, a *Matrix, cfg Config) (*LUResult, error) {
	_, opts := cfg.normalize()
	out, piv, res, err := core.LU(sys, a, opts)
	if err != nil {
		return nil, err
	}
	return &LUResult{Factors: out, Pivots: piv, Report: res}, nil
}

// Solve solves A·x = b: apply P to b, forward-substitute L, back-substitute U.
func (r *LUResult) Solve(b []float64) ([]float64, error) {
	n := r.Factors.Rows
	if len(b) != n {
		return nil, fmt.Errorf("ftla: rhs length %d != %d", len(b), n)
	}
	x := append([]float64(nil), b...)
	for k, p := range r.Pivots {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	blas.Trsv(true, false, true, r.Factors, x)
	blas.Trsv(false, false, false, r.Factors, x)
	return x, nil
}

// Det returns the determinant of A from the factorization.
func (r *LUResult) Det() float64 {
	det := 1.0
	for i := 0; i < r.Factors.Rows; i++ {
		det *= r.Factors.At(i, i)
		if r.Pivots[i] != i {
			det = -det
		}
	}
	return det
}

// Residual returns ‖P·A − L·U‖_F / ‖A‖_F against the original matrix.
func (r *LUResult) Residual(a *Matrix) float64 {
	return matrix.LUResidual(a, r.Factors, r.Pivots)
}

// QRResult holds a protected QR factorization A = Q·R.
type QRResult struct {
	// Factors packs R in the upper triangle and the Householder vectors
	// below the diagonal.
	Factors *Matrix
	// Tau holds the reflector coefficients.
	Tau []float64
	// Report is the run's verification/recovery statistics.
	Report *Report
}

// QR computes the protected Householder QR factorization of a.
func QR(a *Matrix, cfg Config) (*QRResult, error) {
	sc, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	return QROn(hetsim.New(sc), a, cfg)
}

// QROn is QR running on a caller-provided simulated system; see CholeskyOn.
func QROn(sys *hetsim.System, a *Matrix, cfg Config) (*QRResult, error) {
	_, opts := cfg.normalize()
	out, tau, res, err := core.QR(sys, a, opts)
	if err != nil {
		return nil, err
	}
	return &QRResult{Factors: out, Tau: tau, Report: res}, nil
}

// Q materializes the explicit orthogonal factor (n×n).
func (r *QRResult) Q() *Matrix { return lapack.BuildQ(r.Factors, r.Tau) }

// R extracts the upper-triangular factor.
func (r *QRResult) R() *Matrix { return lapack.ExtractR(r.Factors) }

// Solve solves the (square) system A·x = b via R·x = Qᵀ·b. For m > n
// inputs this is the least-squares solution.
func (r *QRResult) Solve(b []float64) ([]float64, error) {
	m := r.Factors.Rows
	if len(b) != m {
		return nil, fmt.Errorf("ftla: rhs length %d != %d", len(b), m)
	}
	// y = Qᵀ·b, applying the reflectors forward without materializing Q.
	y := append([]float64(nil), b...)
	for j := 0; j < len(r.Tau); j++ {
		if r.Tau[j] == 0 {
			continue
		}
		// w = vᵀ·y
		w := y[j]
		for i := j + 1; i < m; i++ {
			w += r.Factors.At(i, j) * y[i]
		}
		tw := r.Tau[j] * w
		y[j] -= tw
		for i := j + 1; i < m; i++ {
			y[i] -= tw * r.Factors.At(i, j)
		}
	}
	// Back-substitute R·x = y on the leading n×n block.
	n := r.Factors.Cols
	x := y[:n]
	blas.Trsv(false, false, false, r.Factors.View(0, 0, n, n), x)
	return x, nil
}

// Residual returns ‖A − Q·R‖_F / ‖A‖_F against the original matrix.
func (r *QRResult) Residual(a *Matrix) float64 {
	return matrix.QRResidual(a, r.Q(), r.R())
}
