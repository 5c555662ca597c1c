package perfmodel

import (
	"math"
	"sort"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// Online calibration (internal/tuner) measures a handful of (variant, op,
// size) points on the deployed machine at the sizes the running workload
// actually exhibits. This file folds those points into an existing model
// set: a measured point claims a narrow size band around its sample, and
// outside the sampled bands the prior curve — analytic default or earlier
// measurement — survives untouched. The result stays a piecewise curve, so
// every downstream consumer (Cost, JSON round-trip, the selection engine)
// is oblivious to how many calibration passes produced it.

// MeasuredPoint is one shadow-benchmark observation: the averaged cost of
// an operation at collection size Size. SE, when positive, is the standard
// error of Value across the shadow benchmark's repeated batches; it becomes
// the variance of the point's overlay band so the selector can see how
// trustworthy the measurement is.
type MeasuredPoint struct {
	Size  float64 `json:"size"`
	Value float64 `json:"value"`
	SE    float64 `json:"se,omitempty"`
}

// bandPiece renders one measured point as the constant polynomial of its
// band, with the point's sampling variance as the band's variance curve.
func bandPiece(upTo float64, p MeasuredPoint) piece {
	out := piece{upTo: upTo, poly: polyfit.Poly{Coeffs: []float64{p.Value}}}
	if p.SE > 0 && !math.IsNaN(p.SE) && !math.IsInf(p.SE, 0) {
		out.vp = polyfit.Poly{Coeffs: []float64{p.SE * p.SE}}
	}
	return out
}

// overlayBand is the half-width factor of the size band a lone measured
// point overrides: the band spans [Size/overlayBand, Size*overlayBand].
// Between two measured points the band boundary falls at their geometric
// mean, so adjacent samples tile the region between them seamlessly.
const overlayBand = 1.5

// OverlayMeasured splices measured points into the (v, op, dim) curve:
// within each point's size band the curve becomes the measured constant;
// elsewhere the prior curve survives. Without a prior curve the points
// alone form the curve, with the outermost bands extended to 0 and +Inf
// (constant extrapolation). Points are deduplicated by size (last wins);
// at least one point is required (no-op otherwise).
func (m *Models) OverlayMeasured(v collections.VariantID, op Op, dim Dimension, points []MeasuredPoint) {
	pts := normalizePoints(points)
	if len(pts) == 0 {
		return
	}
	k := key{v, op, dim}
	prior, hasPrior := m.lookup(k)

	// Band boundaries around the measured sizes: outermost edges at
	// size/band and size*band, interior cuts at geometric means.
	low := pts[0].Size / overlayBand
	high := pts[len(pts)-1].Size * overlayBand
	cuts := make([]float64, 0, len(pts)+1)
	for i := 0; i < len(pts)-1; i++ {
		cuts = append(cuts, math.Sqrt(pts[i].Size*pts[i+1].Size))
	}
	cuts = append(cuts, high)
	// measuredAt returns the measured point whose band covers size x in
	// (low, high].
	measuredAt := func(x float64) MeasuredPoint {
		for i, c := range cuts {
			if x <= c {
				return pts[i]
			}
		}
		return pts[len(pts)-1]
	}

	if !hasPrior {
		// Points alone: first band reaches down to 0, last to +Inf.
		out := curve{}
		for i := 0; i < len(pts)-1; i++ {
			out.pieces = append(out.pieces, bandPiece(cuts[i], pts[i]))
		}
		out.pieces = append(out.pieces, bandPiece(math.Inf(1), pts[len(pts)-1]))
		m.put(k, out)
		return
	}

	// Re-segment over the union of prior bounds and overlay bounds; each
	// segment picks the overlay constant inside (low, high] and the prior
	// polynomial outside.
	bounds := map[float64]bool{low: true, high: true}
	for _, c := range cuts {
		bounds[c] = true
	}
	for _, p := range prior.pieces {
		bounds[p.upTo] = true
	}
	bounds[math.Inf(1)] = true
	all := make([]float64, 0, len(bounds))
	for b := range bounds {
		all = append(all, b)
	}
	sort.Float64s(all)

	out := curve{pieces: make([]piece, 0, len(all))}
	for _, u := range all {
		// Representative point inside the segment ending at u.
		x := u
		if math.IsInf(u, 1) {
			x = math.MaxFloat64
		}
		var pc piece
		if x > low && x <= high {
			pc = bandPiece(u, measuredAt(x))
		} else {
			pp, _ := prior.pieceAt(x)
			pc = piece{upTo: u, poly: pp.poly, vp: pp.vp}
		}
		out.pieces = append(out.pieces, pc)
	}
	m.put(k, out)
}

// normalizePoints sorts by size, drops non-positive sizes and non-finite
// values, and deduplicates equal sizes (last observation wins).
func normalizePoints(points []MeasuredPoint) []MeasuredPoint {
	pts := make([]MeasuredPoint, 0, len(points))
	for _, p := range points {
		if p.Size <= 0 || math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			continue
		}
		pts = append(pts, p)
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Size < pts[j].Size })
	dedup := pts[:0]
	for _, p := range pts {
		if n := len(dedup); n > 0 && dedup[n-1].Size == p.Size {
			dedup[n-1] = p
			continue
		}
		dedup = append(dedup, p)
	}
	return dedup
}

// UnknownVariants returns the sorted variant IDs that carry curves in m but
// have no entry in the variant catalog — typically a model file built
// against a different catalog state. Their curves are never consulted: no
// allocation context lists an uncataloged variant as a candidate, so a load
// path should warn once per listed ID (cmd/experiments routes this through
// the model_gaps counter).
func UnknownVariants(m *Models) []collections.VariantID {
	var out []collections.VariantID
	for _, v := range m.Variants() {
		if _, ok := collections.EntryOf(v); !ok {
			out = append(out, v)
		}
	}
	return out
}
