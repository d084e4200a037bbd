package fit

import (
	"errors"
	"math"
)

// leastSquares solves min‖A·x − b‖₂ for the row-major len(b)×n design a
// via the normal equations AᵀA·x = Aᵀb and a Cholesky factorisation. When
// AᵀA is not positive definite (a rank-deficient design) a tiny ridge term
// λ·I, λ scaled to the mean diagonal magnitude, regularises it instead of
// failing.
func leastSquares(a []float64, n int, b []float64) ([]float64, error) {
	ata := make([]float64, n*n)
	x := make([]float64, n) // Aᵀb, then the solution in place
	for i := 0; i < n; i++ {
		for k := range b {
			aki := a[k*n+i]
			//lint:ignore floatcompare sparsity skip: a zero design entry contributes nothing, and skipping it keeps 0·Inf out of the sums
			if aki == 0 {
				continue
			}
			for j, akj := range a[k*n : (k+1)*n] {
				ata[i*n+j] += aki * akj
			}
		}
		for k, bk := range b {
			x[i] += a[k*n+i] * bk
		}
	}
	l := make([]float64, n*n)
	if !cholesky(l, ata, n) {
		var trace float64
		for i := 0; i < n; i++ {
			trace += ata[i*n+i]
		}
		lambda := 1e-10 * (trace/float64(n) + 1)
		for i := 0; i < n; i++ {
			ata[i*n+i] += lambda
		}
		if !cholesky(l, ata, n) {
			return nil, errors.New("fit: normal equations are singular")
		}
	}
	// Solve L·y = Aᵀb, then Lᵀ·x = y.
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= l[i*n+k] * x[k]
		}
		x[i] /= l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= l[k*n+i] * x[k]
		}
		x[i] /= l[i*n+i]
	}
	return x, nil
}

// cholesky writes the lower-triangular factor L of the symmetric n×n
// matrix a (a = L·Lᵀ, only the lower triangle read) into l and reports
// whether a is positive definite.
func cholesky(l, a []float64, n int) bool {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return false
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return true
}
