package timeseries

import (
	"errors"
	"math"
)

// ErrSingular reports that the least-squares normal equations are singular
// (e.g. all x values identical for degree ≥ 1).
var ErrSingular = errors.New("timeseries: singular system in polynomial fit")

// PolyFit fits a polynomial of the given degree to the points (x[i], y[i])
// by ordinary least squares, returning coefficients c so that
// y ≈ c[0] + c[1]·x + … + c[degree]·x^degree. It is used to draw the fitted
// scalability curves of Fig. 7. The normal equations are solved by Gaussian
// elimination with partial pivoting, which is ample for the low degrees
// (≤ 3) the harness uses.
func PolyFit(x, y Series, degree int) ([]float64, error) {
	if len(x) != len(y) {
		return nil, ErrLengthMismatch
	}
	if degree < 0 {
		return nil, errors.New("timeseries: negative polynomial degree")
	}
	if len(x) < degree+1 {
		return nil, errors.New("timeseries: not enough points for requested degree")
	}
	n := degree + 1

	// Build the normal equations A·c = b where A[i][j] = Σ x^(i+j) and
	// b[i] = Σ y·x^i.
	pow := make([]float64, 2*degree+1)
	for _, xv := range x {
		p := 1.0
		for k := 0; k <= 2*degree; k++ {
			pow[k] += p
			p *= xv
		}
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = pow[i+j]
		}
	}
	for k, xv := range x {
		p := 1.0
		for i := 0; i < n; i++ {
			b[i] += y[k] * p
			p *= xv
		}
	}
	return solveLinear(a, b)
}

// solveLinear solves a·x = b in place via Gaussian elimination with partial
// pivoting. a and b are consumed.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := b[i]
		for j := i + 1; j < n; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
	}
	return x, nil
}
