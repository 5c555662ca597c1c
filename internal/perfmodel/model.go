// Package perfmodel implements the paper's performance-model component: the
// factorial benchmark plan of Table 3, empirical model building on the
// target machine, least-squares cubic cost models per collection variant and
// critical operation, and the analytic default models that ship with the
// framework so it can select variants without a benchmarking pass.
//
// A model answers cost_{op,V}(s): the averaged cost of critical operation op
// on variant V at collection size s, per cost dimension (execution time,
// bytes allocated, retained footprint). The selection engine combines these
// into the total-cost estimate TC_D(V) of Section 3.1.1.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// Op is a critical collection operation — one whose cost is linear or worse
// on at least one variant (Section 4.1.2).
type Op string

// The four critical operations of Table 3. Populate is charged per complete
// population of a collection to its maximum size; the others are charged per
// call at the collection's maximum size.
const (
	OpPopulate Op = "populate"
	OpContains Op = "contains"
	OpIterate  Op = "iterate"
	OpMiddle   Op = "middle"
)

// Ops lists all critical operations in Table 3 order.
func Ops() []Op { return []Op{OpPopulate, OpContains, OpIterate, OpMiddle} }

// Dimension is a performance cost dimension (Section 3.1.2).
type Dimension string

// The cost dimensions modeled in this reproduction. (The paper names energy
// as future work.)
const (
	DimTimeNS    Dimension = "time-ns"   // execution time, nanoseconds
	DimAllocB    Dimension = "alloc-b"   // bytes allocated during the operation
	DimFootprint Dimension = "footprint" // retained bytes at size s
)

// Dimensions lists all modeled cost dimensions, including the synthesized
// energy dimension (see energy.go).
func Dimensions() []Dimension {
	return []Dimension{DimTimeNS, DimAllocB, DimFootprint, DimEnergy}
}

// key identifies one fitted curve.
type key struct {
	Variant collections.VariantID
	Op      Op
	Dim     Dimension
}

// piece is one segment of a cost curve in its build form: poly applies for
// sizes <= upTo.
// The final piece of every curve has upTo = +Inf. vp, when non-empty, is the
// prediction-variance polynomial of the segment — StdErr(s)² as fitted by
// polyfit (see FitResult.VarPoly) or the sampling variance of a measured
// overlay band. An empty vp means the segment carries no uncertainty
// information and its cost is treated as exact.
type piece struct {
	upTo float64
	poly polyfit.Poly
	vp   polyfit.Poly
}

// curve is a piecewise-polynomial cost function in the build form that
// fits, combinations, overlays and decoding produce; a model set packs it
// into its tables (see tables.go). Non-adaptive variants use a single
// piece; adaptive variants get one polynomial per representation regime
// with the break at their transition threshold — a single cubic cannot
// follow the kinked cost function of an array→hash collection without
// inventing phantom costs on one side of the threshold.
type curve struct {
	pieces []piece
}

// pieceAt returns the segment covering size s (the last one for s beyond
// every bound), ok=false for an empty curve.
func (c curve) pieceAt(s float64) (piece, bool) {
	for _, p := range c.pieces {
		if s <= p.upTo {
			return p, true
		}
	}
	if n := len(c.pieces); n > 0 {
		return c.pieces[n-1], true
	}
	return piece{}, false
}

// Models holds the fitted cost curves for a set of collection variants, in
// pointer-free tables (see tables.go). The zero value is empty; use Set/Cost
// to populate and query. Models are safe for concurrent reads after
// construction.
type Models struct {
	index map[cell]span
	tab   *tables
	// nseg and ncoef count the written entries of tab's segments and
	// coefficients.
	nseg, ncoef uint32
	// fp, when non-nil, records the machine the curves were measured on
	// (empirically built or calibration-refined model sets; the analytic
	// defaults are machine-independent and carry none).
	fp *Fingerprint
}

// SetFingerprint attaches the machine identity the curves were measured on.
func (m *Models) SetFingerprint(f Fingerprint) { m.fp = &f }

// MeasuredOn returns the machine fingerprint attached to the model set,
// ok=false for machine-independent (analytic) models.
func (m *Models) MeasuredOn() (Fingerprint, bool) {
	if m.fp == nil {
		return Fingerprint{}, false
	}
	return *m.fp, true
}

// Clone returns an independent copy: mutating the clone (Set, Merge,
// OverlayMeasured) never affects the original, so a running engine's active
// models can be refined off to the side and hot-swapped in atomically. The
// copy holds only the curves m's index reaches, not the ones they replaced.
func (m *Models) Clone() *Models {
	out := &Models{index: make(map[cell]span, len(m.index))}
	out.reserve(m.liveSize())
	for c, sp := range m.index {
		out.copyCurve(c, m, sp)
	}
	if m.fp != nil {
		fp := *m.fp
		out.fp = &fp
	}
	return out
}

// NewModels returns an empty model set.
func NewModels() *Models {
	return &Models{index: make(map[cell]span)}
}

// Set stores a single-polynomial cost curve for (variant, op, dim),
// replacing any previous curve.
func (m *Models) Set(v collections.VariantID, op Op, dim Dimension, p polyfit.Poly) {
	m.put(key{v, op, dim}, curve{pieces: []piece{{upTo: math.Inf(1), poly: p}}})
}

// SetWithVar stores a single-polynomial cost curve together with its
// prediction-variance polynomial (StdErr² as a function of size, from
// polyfit.FitResult.VarPoly), enabling CostSE/CostCI on the curve.
func (m *Models) SetWithVar(v collections.VariantID, op Op, dim Dimension, p, variance polyfit.Poly) {
	m.put(key{v, op, dim}, curve{pieces: []piece{{upTo: math.Inf(1), poly: p, vp: variance}}})
}

// SetPiecewise stores a two-regime cost curve: below applies for sizes up
// to threshold, above beyond it. Used for the adaptive variants, whose cost
// functions kink at the representation transition.
func (m *Models) SetPiecewise(v collections.VariantID, op Op, dim Dimension, threshold float64, below, above polyfit.Poly) {
	m.put(key{v, op, dim}, curve{pieces: []piece{
		{upTo: threshold, poly: below},
		{upTo: math.Inf(1), poly: above},
	}})
}

// SetPiecewiseWithVar is SetPiecewise with a prediction-variance polynomial
// per regime.
func (m *Models) SetPiecewiseWithVar(v collections.VariantID, op Op, dim Dimension, threshold float64, below, belowVar, above, aboveVar polyfit.Poly) {
	m.put(key{v, op, dim}, curve{pieces: []piece{
		{upTo: threshold, poly: below, vp: belowVar},
		{upTo: math.Inf(1), poly: above, vp: aboveVar},
	}})
}

// Has reports whether a curve exists for (variant, op, dim).
func (m *Models) Has(v collections.VariantID, op Op, dim Dimension) bool {
	_, ok := m.find(key{v, op, dim})
	return ok
}

// find returns the span of k's stored curve.
func (m *Models) find(k key) (span, bool) {
	c, ok := findCell(k)
	if !ok {
		return span{}, false
	}
	sp, ok := m.index[c]
	return sp, ok
}

// Resolved is one (variant, op, dim) cell of a model set, looked up once so
// that a caller evaluating it many times — the selection engine folding a
// window's instances — pays the map lookup once instead of per evaluation.
// Models.Cost, CostSE and CostCI are Resolve followed by the same method
// here, so a resolved cell evaluates bit-identically to them. A cell the
// model set lacks resolves too, and evaluating it panics like Cost.
type Resolved struct {
	// tab holds the curve's segments at sp. The handle stays within four
	// words, so the evaluators keep it in registers.
	tab *tables
	sp  span
	// missing names the cell when the model set has no curve for it.
	missing *key
}

// Resolve looks up the (variant, op, dim) curve; ok reports whether the
// model set has one. The handle keeps the curve as it was at the call: a
// later Set, Merge or OverlayMeasured on m does not reach it.
func (m *Models) Resolve(v collections.VariantID, op Op, dim Dimension) (r Resolved, ok bool) {
	k := key{v, op, dim}
	sp, ok := m.find(k)
	if !ok {
		return Resolved{missing: &k}, false
	}
	return Resolved{tab: m.tab, sp: sp}, true
}

// at returns the segment covering size s (the last one for s beyond every
// bound), ok=false for an empty or missing curve.
func (r Resolved) at(s float64) (segment, bool) {
	if r.sp.n == 0 {
		return segment{}, false
	}
	segs := r.tab.segments(r.sp)
	for _, sg := range segs {
		if s <= sg.upTo {
			return sg, true
		}
	}
	return segs[len(segs)-1], true
}

// panicMissing is kept out of line: the evaluators run in the engine's fold
// loop, and the formatting would bloat them.
//
//go:noinline
func (r Resolved) panicMissing() {
	panic(fmt.Sprintf("perfmodel: no curve for %s/%s/%s", r.missing.Variant, r.missing.Op, r.missing.Dim))
}

// Cost evaluates cost_{op,V}(size) on dimension dim. Negative evaluations
// (possible near the origin of a least-squares cubic) are clamped to zero.
// Querying a missing curve panics: the engine must never silently compare a
// modeled variant with an unmodeled one.
func (m *Models) Cost(v collections.VariantID, op Op, dim Dimension, size float64) float64 {
	r, _ := m.Resolve(v, op, dim)
	return r.Cost(size)
}

// Cost is Models.Cost on the resolved cell.
func (r Resolved) Cost(size float64) float64 {
	if r.missing != nil {
		r.panicMissing()
	}
	sg, ok := r.at(size)
	if !ok {
		return 0
	}
	c := polyAt(r.tab.coef, sg.off, sg.n).Eval(size)
	if c < 0 {
		return 0
	}
	return c
}

// CostSE returns the clamped cost estimate together with its standard error
// at the given size. ok is false when the covering segment carries no
// variance information (analytic defaults, merged curves), in which case the
// cost must be treated as exact. Like Cost, it panics on a missing curve.
func (m *Models) CostSE(v collections.VariantID, op Op, dim Dimension, size float64) (cost, se float64, ok bool) {
	r, _ := m.Resolve(v, op, dim)
	return r.CostSE(size)
}

// CostSE is Models.CostSE on the resolved cell.
func (r Resolved) CostSE(size float64) (cost, se float64, ok bool) {
	cost = r.Cost(size)
	sg, found := r.at(size)
	if !found || sg.nv == 0 {
		return cost, 0, false
	}
	variance := polyAt(r.tab.coef, sg.off+sg.n, sg.nv).Eval(size)
	if variance < 0 || math.IsNaN(variance) {
		variance = 0
	}
	return cost, math.Sqrt(variance), true
}

// CostCI returns the confidence interval Cost ± z·StdErr at the given size,
// both bounds clamped to ≥ 0 like Cost itself. A segment without variance
// information yields a zero-width interval at the point estimate, so curves
// that predate uncertainty tracking never widen a decision.
func (m *Models) CostCI(v collections.VariantID, op Op, dim Dimension, size, z float64) (lo, hi float64) {
	r, _ := m.Resolve(v, op, dim)
	return r.CostCI(size, z)
}

// CostCI is Models.CostCI on the resolved cell.
func (r Resolved) CostCI(size, z float64) (lo, hi float64) {
	cost, se, ok := r.CostSE(size)
	if !ok || se == 0 || z <= 0 {
		return cost, cost
	}
	lo, hi = cost-z*se, cost+z*se
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	return lo, hi
}

// Curve returns the stored polynomial for (variant, op, dim) when it is a
// single-piece curve; piecewise curves report ok = false (use Cost or
// CurveString for those). The polynomial is a view of the model set's
// coefficients with its capacity cut to its length: appending to it copies.
func (m *Models) Curve(v collections.VariantID, op Op, dim Dimension) (polyfit.Poly, bool) {
	sp, ok := m.find(key{v, op, dim})
	if !ok || sp.n != 1 {
		return polyfit.Poly{}, false
	}
	s := m.tab.segs[sp.first]
	return polyAt(m.tab.coef, s.off, s.n), true
}

// CurveString renders the stored curve, piecewise or not.
func (m *Models) CurveString(v collections.VariantID, op Op, dim Dimension) (string, bool) {
	cv, ok := m.lookup(key{v, op, dim})
	if !ok {
		return "", false
	}
	if len(cv.pieces) == 1 {
		return cv.pieces[0].poly.String(), true
	}
	parts := make([]string, len(cv.pieces))
	for i, p := range cv.pieces {
		if math.IsInf(p.upTo, 1) {
			parts[i] = fmt.Sprintf("x>prev: %s", p.poly)
		} else {
			parts[i] = fmt.Sprintf("x<=%g: %s", p.upTo, p.poly)
		}
	}
	return strings.Join(parts, " | "), true
}

// Variants returns the sorted list of variant IDs with at least one curve.
func (m *Models) Variants() []collections.VariantID {
	seen := make(map[collections.VariantID]bool)
	for c := range m.index {
		seen[c.key().Variant] = true
	}
	out := make([]collections.VariantID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored curves.
func (m *Models) Len() int { return len(m.index) }

// Merge copies every curve of other into m, overwriting duplicates.
func (m *Models) Merge(other *Models) {
	m.reserve(other.liveSize())
	for c, sp := range other.index {
		m.copyCurve(c, other, sp)
	}
}

// combine builds f(a, b) piecewise, merging the two curves' breakpoints.
// Variance information does not survive combination: f is an arbitrary
// polynomial map with no error-propagation rule, so combined curves (the
// synthesized energy dimension) report no uncertainty.
func combine(a, b curve, f func(pa, pb polyfit.Poly) polyfit.Poly) curve {
	// Two single pieces with one bound make one piece, as the merge below
	// would: the direct path for every non-adaptive curve.
	if len(a.pieces) == 1 && len(b.pieces) == 1 && a.pieces[0].upTo == b.pieces[0].upTo {
		return curve{pieces: []piece{{upTo: a.pieces[0].upTo, poly: f(a.pieces[0].poly, b.pieces[0].poly)}}}
	}
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
	out := curve{pieces: make([]piece, 0, len(cuts))}
	for _, u := range cuts {
		// Pick a representative x inside this segment.
		x := u
		if math.IsInf(u, 1) {
			x = math.MaxFloat64
		}
		pa, _ := a.pieceAt(x)
		pb, _ := b.pieceAt(x)
		out.pieces = append(out.pieces, piece{upTo: u, poly: f(pa.poly, pb.poly)})
	}
	return out
}
