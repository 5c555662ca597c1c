package polyfit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refSolve is Gaussian elimination with partial pivoting on the n×(n+1)
// augmented matrix, eliminating the right-hand side together with the
// matrix — the solver Fit and FitRidge used before the elimination was
// factored and replayed. It is kept here as the independent reference the
// replay must match bit for bit.
func refSolve(a [][]float64) ([]float64, bool) {
	n := len(a)
	colNorm := make([]float64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			if v := math.Abs(a[r][c]); v > colNorm[c] {
				colNorm[c] = v
			}
		}
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12*colNorm[col] {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, true
}

// refFit builds the augmented normal equations of one sample set and solves
// them with refSolve.
func refFit(xs, ys []float64, degree int) ([]float64, bool) {
	if degree < 0 || len(xs) != len(ys) || len(xs) <= degree {
		return nil, false
	}
	n := degree + 1
	pow := make([]float64, 2*degree+1)
	for _, x := range xs {
		xp := 1.0
		for k := 0; k <= 2*degree; k++ {
			pow[k] += xp
			xp *= x
		}
	}
	rhs := make([]float64, n)
	for i, x := range xs {
		xp := 1.0
		for k := 0; k < n; k++ {
			rhs[k] += ys[i] * xp
			xp *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = pow[i+j]
		}
		a[i][n] = rhs[i]
	}
	return refSolve(a)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A Fitter returns exactly what eliminating each sample set's augmented
// system from scratch returns, error or bits, however many sample sets it
// fits over one grid; the factored square solver FitRidge uses matches the
// augmented one the same way. Fit allocates only the coefficients.
func TestFitterMatchesReferenceSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	// check fits every ys over xs with one Fitter and with Fit, and
	// compares each against refFit.
	check := func(name string, xs []float64, degree int, yss ...[]float64) {
		t.Helper()
		f, ferr := NewFitter(xs, degree)
		for j, ys := range yss {
			want, wantOK := refFit(xs, ys, degree)
			for _, form := range []struct {
				name string
				fit  func() (Poly, error)
			}{
				{"Fitter.Fit", func() (Poly, error) {
					if ferr != nil {
						return Poly{}, ferr
					}
					return f.Fit(ys)
				}},
				{"Fit", func() (Poly, error) { return Fit(xs, ys, degree) }},
			} {
				got, err := form.fit()
				switch {
				case !wantOK && !errors.Is(err, ErrBadFit):
					t.Errorf("%s ys#%d %s: err = %v, reference refuses", name, j, form.name, err)
				case wantOK && err != nil:
					t.Errorf("%s ys#%d %s: err = %v, reference solves to %v", name, j, form.name, err, want)
				case wantOK && !sameBits(got.Coeffs, want):
					t.Errorf("%s ys#%d %s: coeffs %v, reference %v", name, j, form.name, got.Coeffs, want)
				}
			}
		}
	}
	randYs := func(xs []float64) []float64 {
		truth := make([]float64, 1+rng.Intn(5))
		for k := range truth {
			truth[k] = rng.NormFloat64() * math.Pow(10, -3*float64(k))
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = Poly{Coeffs: truth}.Eval(x) + rng.NormFloat64()
		}
		return ys
	}

	solved, refused := 0, 0
	for trial := 0; trial < 3000; trial++ {
		m := 2 + rng.Intn(39)
		degree := rng.Intn(6)
		top := math.Pow(10, 6*rng.Float64())
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = top * rng.Float64()
			if rng.Intn(2) == 0 {
				xs[i] = math.Round(xs[i])
			}
		}
		check("seeded", xs, degree, randYs(xs), randYs(xs), randYs(xs))
		if _, ok := refFit(xs, xs, degree); ok {
			solved++
		} else {
			refused++
		}
	}
	// Both outcomes must be exercised for the parity to mean anything.
	if solved < 100 || refused < 100 {
		t.Errorf("seeded grids: %d solved, %d refused by the reference; want ≥100 of each", solved, refused)
	}

	for _, c := range legacyCorpus() {
		check(c.name, c.xs, c.degree, c.ys)
	}
	_, xs, ys := conditioningCase()
	for degree := 0; degree <= 5; degree++ {
		check("conditioning", xs, degree, ys, randYs(xs))
	}

	t.Run("ErrBadFit", func(t *testing.T) {
		line := []float64{1, 2, 3}
		for _, c := range []struct {
			name   string
			xs     []float64
			degree int
		}{
			{"negative degree", line, -1},
			{"len(xs) == degree", line, 3},
			{"len(xs) < degree", line, 4},
			{"no samples", nil, 0},
			{"duplicate x at 1e6", []float64{1e6, 1e6, 2e6}, 2},
			{"duplicate x at small scale", []float64{5, 5, 5}, 1},
		} {
			if _, ok := refFit(c.xs, make([]float64, len(c.xs)), c.degree); ok {
				t.Fatalf("%s: the reference solves it", c.name)
			}
			if _, err := NewFitter(c.xs, c.degree); !errors.Is(err, ErrBadFit) {
				t.Errorf("%s: NewFitter err = %v, want ErrBadFit", c.name, err)
			}
		}
		f, err := NewFitter(line, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ys := range [][]float64{nil, {1, 2}, {1, 2, 3, 4}} {
			if _, ok := refFit(line, ys, 1); ok {
				t.Fatalf("len(ys) %d: the reference solves it", len(ys))
			}
			if _, err := f.Fit(ys); !errors.Is(err, ErrBadFit) {
				t.Errorf("Fit with len(ys) %d over 3 xs: err = %v, want ErrBadFit", len(ys), err)
			}
		}
	})

	t.Run("factor", func(t *testing.T) {
		singular := 0
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(6)
			a := make([][]float64, n)
			aug := make([][]float64, n)
			b := make([]float64, n)
			for r := range a {
				a[r] = make([]float64, n)
				for c := range a[r] {
					a[r][c] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
				if r > 0 && rng.Intn(8) == 0 {
					copy(a[r], a[r-1]) // singular
				}
				b[r] = rng.NormFloat64()
				aug[r] = append(append([]float64(nil), a[r]...), b[r])
			}
			want, wantOK := refSolve(aug)
			e, err := factor(a)
			if err != nil {
				if wantOK {
					t.Fatalf("trial %d: factor refuses %v, reference solves it", trial, a)
				}
				singular++
				continue
			}
			if !wantOK {
				t.Fatalf("trial %d: factor accepts %v, reference refuses it", trial, a)
			}
			e.solve(b)
			if !sameBits(b, want) {
				t.Fatalf("trial %d: solution %v, reference %v", trial, b, want)
			}
		}
		if singular < 50 {
			t.Errorf("only %d of 2000 systems were singular; want ≥50", singular)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		xs := []float64{10, 50, 100, 150, 200, 400, 700, 1000}
		ys := randYs(xs)
		f, err := NewFitter(xs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { f.Fit(ys) }); n > 1 {
			t.Errorf("Fitter.Fit allocates %v times, want at most 1 (the coefficients)", n)
		}
	})
}
