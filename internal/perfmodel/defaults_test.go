package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// refSolve is Gaussian elimination with partial pivoting on the n×(n+1)
// augmented matrix, the solver every default curve was fitted with before
// one elimination per sample subset was shared across curves. It is kept
// here as the independent reference the defaults must match bit for bit.
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

// refFit solves the augmented normal equations of one sample set.
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

// refCombine is the general breakpoint merge of combine, without its
// single-piece direct path.
func refCombine(a, b curve, f func(pa, pb polyfit.Poly) polyfit.Poly) curve {
	bounds := map[float64]bool{}
	for _, p := range a.pieces {
		bounds[p.upTo] = true
	}
	for _, p := range b.pieces {
		bounds[p.upTo] = true
	}
	cuts := make([]float64, 0, len(bounds))
	for u := range bounds {
		cuts = append(cuts, u)
	}
	sort.Float64s(cuts)
	segAt := func(c curve, x float64) polyfit.Poly {
		for _, p := range c.pieces {
			if x <= p.upTo {
				return p.poly
			}
		}
		return c.pieces[len(c.pieces)-1].poly
	}
	out := curve{pieces: make([]piece, 0, len(cuts))}
	for _, u := range cuts {
		x := u
		if math.IsInf(u, 1) {
			x = math.MaxFloat64
		}
		out.pieces = append(out.pieces, piece{upTo: u, poly: f(segAt(a, x), segAt(b, x))})
	}
	return out
}

// refDefault builds the default curves of the given degree one at a time:
// each curve samples its cost function over its own sizes and solves its
// own augmented system, and each energy curve is merged from its time and
// allocation curves by refCombine.
func refDefault(t *testing.T, degree int) map[key]curve {
	t.Helper()
	grid := append([]int{20, 30, 40, 60, 70, 80}, DefaultPlan().Sizes...)
	fit := func(fn collections.CostFn, keep func(float64) bool) polyfit.Poly {
		var xs, ys []float64
		for _, s := range grid {
			if x := float64(s); keep(x) {
				xs = append(xs, x)
				ys = append(ys, fn(x))
			}
		}
		c, ok := refFit(xs, ys, min(degree, len(xs)-1))
		if !ok {
			t.Fatalf("reference fit over %v at degree %d failed", xs, degree)
		}
		return polyfit.Poly{Coeffs: c}
	}
	out := map[key]curve{}
	zero := func(float64) float64 { return 0 }
	for _, e := range collections.Entries() {
		av := e.Analytic
		if av == nil {
			continue
		}
		set := func(op Op, dim Dimension, fn collections.CostFn) {
			k := key{e.Info.ID, op, dim}
			if e.AdaptiveThreshold <= 0 {
				out[k] = curve{pieces: []piece{{upTo: math.Inf(1), poly: fit(fn, func(float64) bool { return true })}}}
				return
			}
			thr := float64(e.AdaptiveThreshold)
			out[k] = curve{pieces: []piece{
				{upTo: thr, poly: fit(fn, func(x float64) bool { return x <= thr })},
				{upTo: math.Inf(1), poly: fit(fn, func(x float64) bool { return x > thr })},
			}}
		}
		for op, fn := range av.Time {
			set(Op(op), DimTimeNS, fn)
		}
		set(OpPopulate, DimAllocB, av.AllocPopulate)
		set(OpMiddle, DimAllocB, av.AllocMiddle)
		set(OpContains, DimAllocB, zero)
		set(OpIterate, DimAllocB, zero)
		for _, op := range Ops() {
			set(op, DimFootprint, av.Footprint)
		}
	}
	energy := map[key]curve{}
	for k, tc := range out {
		if k.Dim != DimTimeNS {
			continue
		}
		ac, ok := out[key{k.Variant, k.Op, DimAllocB}]
		if !ok {
			ac = curve{pieces: []piece{{upTo: math.Inf(1)}}}
		}
		pf := PowerFactor(k.Variant)
		energy[key{k.Variant, k.Op, DimEnergy}] = refCombine(tc, ac, func(pt, pa polyfit.Poly) polyfit.Poly {
			return polyfit.Add(polyfit.Scale(pt, pf), polyfit.Scale(pa, allocEnergyPerByte))
		})
	}
	for k, c := range energy {
		out[k] = c
	}
	return out
}

// eval is the build-form curve's cost at size s: the covering piece's
// polynomial, 0 for an empty curve.
func (c curve) eval(s float64) float64 {
	if p, ok := c.pieceAt(s); ok {
		return p.poly.Eval(s)
	}
	return 0
}

// curveBitsDiff describes the first difference between two curves'
// breakpoints, coefficients or variance polynomials, compared as
// Float64bits; "" when they are identical.
func curveBitsDiff(got, want curve) string {
	if len(got.pieces) != len(want.pieces) {
		return fmt.Sprintf("%d pieces, want %d", len(got.pieces), len(want.pieces))
	}
	same := func(a, b []float64) bool {
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
	for i, w := range want.pieces {
		g := got.pieces[i]
		switch {
		case math.Float64bits(g.upTo) != math.Float64bits(w.upTo):
			return fmt.Sprintf("piece %d bound %v, want %v", i, g.upTo, w.upTo)
		case !same(g.poly.Coeffs, w.poly.Coeffs):
			return fmt.Sprintf("piece %d coeffs %v, want %v", i, g.poly.Coeffs, w.poly.Coeffs)
		case !same(g.vp.Coeffs, w.vp.Coeffs):
			return fmt.Sprintf("piece %d variance %v, want %v", i, g.vp.Coeffs, w.vp.Coeffs)
		}
	}
	return ""
}

// Every default curve — fitted, piecewise or synthesized energy — carries
// exactly the breakpoints and coefficients of fitting that curve alone
// with the augmented-matrix solver.
func TestDefaultModelsMatchReferenceFit(t *testing.T) {
	for _, c := range []struct {
		name   string
		degree int
		build  func() *Models
	}{
		{"Default", DefaultPlan().Degree, Default},
		{"DefaultDegree(1)", 1, func() *Models { return DefaultDegree(1) }},
		{"DefaultDegree(2)", 2, func() *Models { return DefaultDegree(2) }},
	} {
		m := c.build()
		want := refDefault(t, c.degree)
		if m.Len() != len(want) {
			t.Errorf("%s: %d curves, reference has %d", c.name, m.Len(), len(want))
		}
		pieces := 0
		for k, w := range want {
			pieces += len(w.pieces)
			got, ok := m.lookup(k)
			if !ok {
				t.Errorf("%s: no curve %s/%s/%s", c.name, k.Variant, k.Op, k.Dim)
				continue
			}
			if d := curveBitsDiff(got, w); d != "" {
				t.Errorf("%s: %s/%s/%s: %s", c.name, k.Variant, k.Op, k.Dim, d)
			}
		}
		// The piecewise adaptive curves are part of what is compared.
		if pieces <= len(want) {
			t.Errorf("%s: reference has no piecewise curve", c.name)
		}
	}
}

// A custom adaptive variant whose threshold leaves one regime without a
// sampled size used to panic Default, and with it every engine of the
// process. Such a curve is one polynomial over the whole grid. A
// threshold that leaves a single size on one side still breaks there,
// with that regime fitted at degree 0, and a regime whose cubic is
// singular is fitted at a lower degree. The curves are fitted through the
// per-curve helper with an explicit threshold, so no variant is added to
// the process-wide catalog.
func TestDefaultCurveAnyAdaptiveThreshold(t *testing.T) {
	fn := func(s float64) float64 { return 40 + 0.3*s + 2e-4*s*s }
	for _, degree := range []int{1, 2, 3} {
		s := newSampler(degree)
		whole := s.curve(fn, 0)
		if len(whole.pieces) != 1 {
			t.Fatalf("degree %d: threshold 0 gave %d pieces", degree, len(whole.pieces))
		}
		for _, thr := range []int64{1, 5, 9, 1000, 5000} {
			if d := curveBitsDiff(s.curve(fn, thr), whole); d != "" {
				t.Errorf("degree %d threshold %d: %s; want the whole-grid fit", degree, thr, d)
			}
		}
		for _, c := range []struct {
			thr      int64
			piece    int
			constant float64
		}{{10, 0, fn(10)}, {999, 1, fn(1000)}} {
			got := s.curve(fn, c.thr)
			if len(got.pieces) != 2 || got.pieces[0].upTo != float64(c.thr) {
				t.Errorf("degree %d threshold %d: pieces %+v, want a break at %d", degree, c.thr, got.pieces, c.thr)
				continue
			}
			if p := got.pieces[c.piece].poly.Coeffs; len(p) != 1 || p[0] != c.constant {
				t.Errorf("degree %d threshold %d: one-size regime %v, want [%g]", degree, c.thr, p, c.constant)
			}
		}
		if got := s.curve(fn, 500); len(got.pieces) != 2 || len(got.pieces[1].poly.Coeffs) > min(degree, 2)+1 {
			t.Errorf("degree %d threshold 500: pieces %+v, want a break with at most a quadratic above", degree, got.pieces)
		}
		for thr := int64(1); thr <= 1100; thr++ {
			cv := s.curve(fn, thr)
			for _, size := range []float64{0, 10, float64(thr), 1000, 2000} {
				if v := cv.eval(size); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("degree %d threshold %d: cost at %g is %v", degree, thr, size, v)
				}
			}
		}
	}
}

// BenchmarkDefaultModels builds the analytic default models, which the
// first engine of every process does once.
func BenchmarkDefaultModels(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Default()
	}
}
