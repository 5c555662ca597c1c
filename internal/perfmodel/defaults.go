package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// This file fits the analytic default models that ship with the framework.
// The cost functions themselves live on the variant catalog
// (collections.Entry.Analytic, see collections/catalog_models.go): the paper
// builds its models by benchmarking on the target machine (Section 4.1) and
// this repository supports that too (builder.go, cmd/perfmodel), but
// hardware-independent defaults keep the selection engine deterministic in
// tests and examples. Default samples each catalog entry's analytic
// functions at the Table 3 plan sizes and fits them with the same
// least-squares cubic machinery the empirical builder uses, so default and
// machine-built models are interchangeable everywhere — including for
// user-registered variants carrying a collections.WithAnalytic model.

// sampler fits analytic cost functions over one sample grid. Every subset
// of the grid a curve is fitted over — the whole grid, and the two regimes
// of each adaptive threshold — gets one polyfit.Fitter, so its normal
// matrix is eliminated once however many curves share it, and the sample
// buffers are reused from curve to curve.
type sampler struct {
	sizes   []float64
	degree  int
	full    *polyfit.Fitter
	regimes map[int64]*regimes
	ys      []float64 // the curve's samples at every grid size
	lo, hi  []float64 // ys split at the curve's threshold
}

// regimes are the fitters of an adaptive threshold's two sides: the grid
// sizes up to the threshold, and those beyond it, each in grid order.
type regimes struct {
	below, above *polyfit.Fitter
}

// newSampler returns a sampler over the default models' grid: the Table 3
// plan sizes, densified below the adaptive thresholds. With only two
// Table 3 sizes under 80, a cubic fitted to a piecewise curve sags toward
// zero there and invents phantom advantages for the adaptive variants on
// tiny-collection sites.
func newSampler(degree int) *sampler {
	var sizes []float64
	for _, n := range append([]int{20, 30, 40, 60, 70, 80}, DefaultPlan().Sizes...) {
		sizes = append(sizes, float64(n))
	}
	full, err := polyfit.NewFitter(sizes, degree)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: default fit failed: %v", err))
	}
	return &sampler{
		sizes:   sizes,
		degree:  degree,
		full:    full,
		regimes: make(map[int64]*regimes),
		ys:      make([]float64, len(sizes)),
	}
}

// curve samples fn at the grid sizes and fits it: one polynomial for a
// variant without an adaptive threshold (thr ≤ 0), a two-regime piecewise
// curve broken at thr for an adaptive one. A threshold that leaves one
// regime without a sampled size gets a single polynomial over the whole
// grid, since there is nothing to fit that regime to.
func (s *sampler) curve(fn collections.CostFn, thr int64) curve {
	for i, x := range s.sizes {
		s.ys[i] = fn(x)
	}
	r := s.regimesAt(thr)
	if r == nil {
		return curve{pieces: []piece{{upTo: math.Inf(1), poly: mustFit(s.full, s.ys)}}}
	}
	s.lo, s.hi = s.split(s.ys, thr, s.lo[:0], s.hi[:0])
	return curve{pieces: []piece{
		{upTo: float64(thr), poly: mustFit(r.below, s.lo)},
		{upTo: math.Inf(1), poly: mustFit(r.above, s.hi)},
	}}
}

// split appends vals[i] to lo where the grid size i is at most thr and to
// hi where it is beyond, keeping grid order.
func (s *sampler) split(vals []float64, thr int64, lo, hi []float64) ([]float64, []float64) {
	for i, x := range s.sizes {
		if x <= float64(thr) {
			lo = append(lo, vals[i])
		} else {
			hi = append(hi, vals[i])
		}
	}
	return lo, hi
}

// regimesAt returns the fitters of threshold thr, building them on first
// use, or nil when thr is not adaptive or one side has no grid size.
func (s *sampler) regimesAt(thr int64) *regimes {
	if thr <= 0 {
		return nil
	}
	if r, ok := s.regimes[thr]; ok {
		return r
	}
	below, above := s.split(s.sizes, thr, nil, nil)
	var r *regimes
	if len(below) > 0 && len(above) > 0 {
		r = &regimes{below: s.regimeFitter(below), above: s.regimeFitter(above)}
	}
	s.regimes[thr] = r
	return r
}

// regimeFitter returns a fitter over one regime's sizes at the highest
// degree, up to the sampler's, that they determine. A regime can hold fewer
// sizes than the degree needs, and over a narrow range of large sizes the
// cubic normal matrix fails the pivot test (the sizes above any threshold
// from 300 to 849). One size always determines degree 0.
func (s *sampler) regimeFitter(sizes []float64) *polyfit.Fitter {
	for d := min(s.degree, len(sizes)-1); d >= 0; d-- {
		if f, err := polyfit.NewFitter(sizes, d); err == nil {
			return f
		}
	}
	panic(fmt.Sprintf("perfmodel: no polynomial fits sizes %v", sizes))
}

// mustFit fits ys, panicking on failure (defaults are static data; a
// failure is a programming error).
func mustFit(f *polyfit.Fitter, ys []float64) polyfit.Poly {
	p, err := f.Fit(ys)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: default fit failed: %v", err))
	}
	return p
}

// Default returns the analytic default models for every catalog variant
// carrying an analytic model, fitted over the Table 3 plan sizes with cubic
// polynomials. The result is freshly built on each call; callers typically
// build it once and share it (reads are concurrency-safe).
func Default() *Models {
	return DefaultDegree(DefaultPlan().Degree)
}

// DefaultDegree builds the analytic default models with fits of the given
// polynomial degree instead of the paper's cubic. Lower degrees smear the
// piecewise adaptive-variant curves badly — the model-degree ablation bench
// quantifies what that costs in selection quality.
func DefaultDegree(degree int) *Models {
	s := newSampler(degree)
	entries := collections.Entries()
	// The tables are reserved before fitting: a curve has one piece, or two
	// across an adaptive threshold, of at most degree+1 coefficients, and
	// an energy curve has the pieces of its time curve.
	n, pieces := 0, 0
	for _, e := range entries {
		if av := e.Analytic; av != nil {
			// Time and energy per timed op; alloc and footprint per op.
			curves := 2 * (len(av.Time) + len(Ops()))
			n += curves
			if s.regimesAt(e.AdaptiveThreshold) != nil {
				curves *= 2
			}
			pieces += curves
		}
	}
	m := &Models{index: make(map[cell]span, n)}
	m.reserve(pieces, pieces*(degree+1))
	zero := func(float64) float64 { return 0 }
	for _, e := range entries {
		av := e.Analytic
		if av == nil {
			continue
		}
		// set fits fn once and stores the curve for each of ops: the zero
		// allocation curve and the footprint curve are the same function
		// under several ops.
		set := func(dim Dimension, fn collections.CostFn, ops ...Op) {
			cv := s.curve(fn, e.AdaptiveThreshold)
			for _, op := range ops {
				m.put(key{e.Info.ID, op, dim}, cv)
			}
		}
		for op, fn := range av.Time {
			set(DimTimeNS, fn, Op(op))
		}
		set(DimAllocB, av.AllocPopulate, OpPopulate)
		set(DimAllocB, av.AllocMiddle, OpMiddle)
		set(DimAllocB, zero, OpContains, OpIterate)
		set(DimFootprint, av.Footprint, Ops()...)
	}
	SynthesizeEnergy(m)
	return m
}

// AnalyticCost evaluates the raw (un-fitted) analytic cost function for a
// variant, used by tests to bound the fit error of Default.
func AnalyticCost(v collections.VariantID, op Op, dim Dimension, s float64) (float64, bool) {
	e, ok := collections.EntryOf(v)
	if !ok || e.Analytic == nil {
		return 0, false
	}
	av := e.Analytic
	switch dim {
	case DimTimeNS:
		if fn, ok := av.Time[string(op)]; ok {
			return fn(s), true
		}
	case DimAllocB:
		switch op {
		case OpPopulate:
			return av.AllocPopulate(s), true
		case OpMiddle:
			return av.AllocMiddle(s), true
		default:
			return 0, true
		}
	case DimFootprint:
		return av.Footprint(s), true
	}
	return 0, false
}
