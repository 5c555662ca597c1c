// Package polyfit implements least-squares polynomial fitting, the math the
// paper uses to turn benchmark samples into performance models:
//
//	cost_op(s) = Σ_{k=0..d} a_k · s^k
//
// Coefficients are found by solving the normal equations of the Vandermonde
// system with Gaussian elimination (partial pivoting). The paper uses degree
// three; Fit accepts any degree smaller than the sample count.
package polyfit

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Poly is a polynomial with coefficients in ascending-power order:
// Coeffs[k] multiplies x^k.
type Poly struct {
	Coeffs []float64
}

// Eval returns the polynomial's value at x (Horner's method).
func (p Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// Degree returns the polynomial's degree (len(Coeffs)-1), or -1 if empty.
func (p Poly) Degree() int { return len(p.Coeffs) - 1 }

// String renders the polynomial in human-readable form, e.g.
// "3.2 + 1.5·x + 0.01·x^2".
func (p Poly) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	for k, c := range p.Coeffs {
		if k > 0 {
			b.WriteString(" + ")
		}
		switch k {
		case 0:
			fmt.Fprintf(&b, "%.6g", c)
		case 1:
			fmt.Fprintf(&b, "%.6g*x", c)
		default:
			fmt.Fprintf(&b, "%.6g*x^%d", c, k)
		}
	}
	return b.String()
}

// ErrBadFit is returned when the sample set cannot determine the requested
// polynomial (too few points, mismatched slices, or a singular system).
var ErrBadFit = errors.New("polyfit: insufficient or degenerate samples")

// Fit computes the least-squares polynomial of the given degree through the
// samples (xs[i], ys[i]). It requires len(xs) == len(ys) > degree.
func Fit(xs, ys []float64, degree int) (Poly, error) {
	f, err := NewFitter(xs, degree)
	if err != nil {
		return Poly{}, err
	}
	return f.Fit(ys)
}

// Fitter fits polynomials of one degree through one fixed set of abscissae.
// The normal matrix (VᵀV) depends on the abscissae alone, so NewFitter
// eliminates it once and Fit only replays that elimination on each
// right-hand side Vᵀy. The replay performs the floating-point operations a
// full elimination of the augmented system would perform on its last column,
// in the same order, so a Fitter returns the same bits as fitting each
// sample set from scratch. A Fitter is safe for concurrent use.
type Fitter struct {
	n    int       // coefficient count, degree+1
	pows []float64 // pows[k*len(xs)+i] = xs[i]^k
	lu   lu
}

// NewFitter prepares fits of the given degree over xs. It returns ErrBadFit
// when xs cannot determine such a polynomial: a negative degree, no more
// points than the degree, or a singular normal matrix.
func NewFitter(xs []float64, degree int) (*Fitter, error) {
	if degree < 0 || len(xs) <= degree {
		return nil, ErrBadFit
	}
	n := degree + 1
	pows := make([]float64, len(xs)*n)
	// Normal equations: (VᵀV) a = Vᵀy with V the Vandermonde matrix.
	// VᵀV[i][j] = Σ x^(i+j); Vᵀy[i] = Σ y·x^i.
	pow := make([]float64, 2*degree+1)
	for i, x := range xs {
		xp := 1.0
		for k := 0; k <= 2*degree; k++ {
			if k < n {
				pows[k*len(xs)+i] = xp
			}
			pow[k] += xp
			xp *= x
		}
	}
	// Row i of VᵀV is pow[i:i+n]; factor copies the rows before eliminating.
	a := make([][]float64, n)
	for i := range a {
		a[i] = pow[i : i+n]
	}
	e, err := factor(a)
	if err != nil {
		return nil, err
	}
	return &Fitter{n: n, pows: pows, lu: e}, nil
}

// Fit returns the least-squares polynomial through (xs[i], ys[i]) for the
// abscissae the Fitter was built on, or ErrBadFit when len(ys) differs
// from len(xs). It allocates only the coefficients.
func (f *Fitter) Fit(ys []float64) (Poly, error) {
	m := len(f.pows) / f.n
	if len(ys) != m {
		return Poly{}, ErrBadFit
	}
	c := make([]float64, f.n)
	for k := range c {
		// Σ y·x^k, accumulated in sample order.
		var sum float64
		for i, xp := range f.pows[k*m : (k+1)*m] {
			sum += ys[i] * xp
		}
		c[k] = sum
	}
	f.lu.solve(c)
	return Poly{Coeffs: c}, nil
}

// pivotRelTol is the relative pivot threshold of factor: a pivot smaller
// than pivotRelTol times its column's original norm is treated as zero. The
// historical threshold was the absolute constant 1e-12, which is meaningless
// once the matrix entries are power sums of large sizes — a degree-3 normal
// matrix over sizes ≥ 1e5 holds entries up to ~1e36, so a numerically dead
// pivot (pure cancellation noise at ~1e20) still sailed past the absolute
// check and the elimination "succeeded" with garbage coefficients.
const pivotRelTol = 1e-12

// lu is a Gaussian elimination with partial pivoting of a square matrix,
// kept so that it can be replayed on any right-hand side: piv[col] is the
// row swapped into col at step col, a[r][c] for c >= r is the upper
// triangle, and a[r][c] for c < r is the multiplier step c applied to the
// row that ended in r.
type lu struct {
	piv []int
	a   [][]float64
}

// factor eliminates a copy of the square matrix a, leaving a unchanged.
// Pivot degeneracy is judged relative to each column's norm in a, so
// detection is invariant under uniform scaling of the system.
func factor(a [][]float64) (lu, error) {
	n := len(a)
	colNorm := make([]float64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			if v := math.Abs(a[r][c]); v > colNorm[c] {
				colNorm[c] = v
			}
		}
	}
	buf := make([]float64, n*n)
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = buf[r*n : (r+1)*n]
		copy(rows[r], a[r])
	}
	piv := make([]int, n)
	for col := 0; col < n; col++ {
		// Partial pivot: the row with the largest magnitude in col.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(rows[r][col]) > math.Abs(rows[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(rows[pivot][col]) < pivotRelTol*colNorm[col] {
			return lu{}, ErrBadFit
		}
		piv[col] = pivot
		rows[col], rows[pivot] = rows[pivot], rows[col]
		for r := col + 1; r < n; r++ {
			f := rows[r][col] / rows[col][col]
			for c := col + 1; c < n; c++ {
				rows[r][c] -= f * rows[col][c]
			}
			rows[r][col] = f
		}
	}
	return lu{piv: piv, a: rows}, nil
}

// solve overwrites b with the solution of the factored system. Swapping all
// rows first and subtracting the multipliers after is the elimination's own
// arithmetic on an augmented column: the multipliers moved with their rows,
// so every entry receives the same subtractions in the same order.
func (e lu) solve(b []float64) {
	n := len(e.piv)
	for col, p := range e.piv {
		b[col], b[p] = b[p], b[col]
	}
	for col := 0; col < n; col++ {
		for r := col + 1; r < n; r++ {
			b[r] -= e.a[r][col] * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= e.a[i][j] * b[j]
		}
		b[i] = sum / e.a[i][i]
	}
}

// Residuals returns ys[i] - p.Eval(xs[i]) for each sample.
func Residuals(p Poly, xs, ys []float64) []float64 {
	res := make([]float64, len(xs))
	for i := range xs {
		res[i] = ys[i] - p.Eval(xs[i])
	}
	return res
}

// RMSE returns the root-mean-square error of the fit over the samples.
func RMSE(p Poly, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range Residuals(p, xs, ys) {
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Scale returns the polynomial f·p.
func Scale(p Poly, f float64) Poly {
	out := Poly{Coeffs: make([]float64, len(p.Coeffs))}
	for i, c := range p.Coeffs {
		out.Coeffs[i] = f * c
	}
	return out
}

// Add returns the polynomial p + q.
func Add(p, q Poly) Poly {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := Poly{Coeffs: make([]float64, n)}
	for i := range out.Coeffs {
		if i < len(p.Coeffs) {
			out.Coeffs[i] += p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			out.Coeffs[i] += q.Coeffs[i]
		}
	}
	return out
}
