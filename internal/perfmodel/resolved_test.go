package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collections"
)

// schema2Models is a schema-2 model file with variance polynomials: a
// single-piece cubic that is negative for sizes 2 through 53 (its variance
// polynomial is negative for sizes 9 through 491), and a two-piece curve
// with a variance-free upper regime.
const schema2Models = `{
  "schema": 2,
  "curves": [
    {"variant": "v/cubic", "op": "contains", "dimension": "time-ns",
     "pieces": [{"coeffs": [5, -3, 0, 0.001], "var": [4, -0.5, 0.001]}]},
    {"variant": "v/kinked", "op": "populate", "dimension": "alloc-b",
     "pieces": [{"upTo": 64, "coeffs": [10, 1.5], "var": [1, 0.25]},
                {"coeffs": [200, 0.5, 0.0001]}]}
  ]
}`

// refCostCI is the evaluation rule Cost and CostCI document, written out
// over the stored pieces: the first piece whose bound covers s (the last one
// beyond every bound), Horner's rule, a clamp at 0, and an interval of
// z·sqrt(variance) around the point, the variance clamped at 0 and both
// bounds at 0.
func refCostCI(cv curve, s, z float64) (cost, lo, hi float64) {
	p := cv.pieces[len(cv.pieces)-1]
	for _, q := range cv.pieces {
		if s <= q.upTo {
			p = q
			break
		}
	}
	horner := func(coeffs []float64) float64 {
		var y float64
		for i := len(coeffs) - 1; i >= 0; i-- {
			y = y*s + coeffs[i]
		}
		return y
	}
	cost = horner(p.poly.Coeffs)
	if cost < 0 {
		cost = 0
	}
	if len(p.vp.Coeffs) == 0 || z <= 0 {
		return cost, cost, cost
	}
	variance := horner(p.vp.Coeffs)
	if variance < 0 || math.IsNaN(variance) {
		variance = 0
	}
	se := math.Sqrt(variance)
	if se == 0 {
		return cost, cost, cost
	}
	lo, hi = cost-z*se, cost+z*se
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	return cost, lo, hi
}

// probeSizes returns the sizes every cell is checked at: 0, 1, 10 (where
// the schema-2 cubic is negative), each piece bound with its float
// neighbours, and 1,000 seeded sizes up to 1e6.
func probeSizes(cv curve, rng *rand.Rand) []float64 {
	sizes := []float64{0, 1, 10}
	for _, p := range cv.pieces {
		if !math.IsInf(p.upTo, 1) {
			sizes = append(sizes, math.Nextafter(p.upTo, math.Inf(-1)), p.upTo, math.Nextafter(p.upTo, math.Inf(1)))
		}
	}
	for i := 0; i < 1000; i++ {
		sizes = append(sizes, rng.Float64()*1e6)
	}
	return sizes
}

// TestResolvedMatchesModelLookups pins the resolved handle the selection
// engine folds with to the by-key lookups, bit for bit, on every cell of
// the default models, a schema-2 file with variance polynomials, piecewise
// adaptive curves and a calibration overlay — and both to refCostCI.
func TestResolvedMatchesModelLookups(t *testing.T) {
	decoded, err := ReadJSON(strings.NewReader(schema2Models))
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.Cost("v/cubic", OpContains, DimTimeNS, 10); got != 0 {
		t.Fatalf("cubic fixture at 10 = %g, want the clamped 0", got)
	}
	overlaid := Default().Clone()
	overlaid.OverlayMeasured(collections.HashSetID, OpContains, DimTimeNS, []MeasuredPoint{
		{Size: 10, Value: 31, SE: 2}, {Size: 300, Value: 45, SE: 0.5}, {Size: 5000, Value: 60},
	})
	overlaid.OverlayMeasured(collections.AdaptiveSetID, OpPopulate, DimTimeNS, []MeasuredPoint{
		{Size: 40, Value: 900, SE: 30},
	})
	for _, tc := range []struct {
		name string
		m    *Models
	}{
		{"default", Default()},
		{"schema-2", decoded},
		{"overlay", overlaid},
	} {
		rng := rand.New(rand.NewSource(14))
		piecewise := 0
		for k, cv := range tc.m.all() {
			if len(cv.pieces) > 1 {
				piecewise++
			}
			r, ok := tc.m.Resolve(k.Variant, k.Op, k.Dim)
			if !ok {
				t.Fatalf("%s: Resolve(%v) found no curve", tc.name, k)
			}
			for _, s := range probeSizes(cv, rng) {
				const z = 1.96
				cost, lo, hi := refCostCI(cv, s, z)
				mc := tc.m.Cost(k.Variant, k.Op, k.Dim, s)
				mlo, mhi := tc.m.CostCI(k.Variant, k.Op, k.Dim, s, z)
				rlo, rhi := r.CostCI(s, z)
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"Cost", r.Cost(s), mc}, {"Cost vs reference", mc, cost},
					{"CostCI lo", rlo, mlo}, {"CostCI lo vs reference", mlo, lo},
					{"CostCI hi", rhi, mhi}, {"CostCI hi vs reference", mhi, hi},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.want) {
						t.Fatalf("%s %v at size %v: %s = %v, want %v", tc.name, k, s, c.what, c.got, c.want)
					}
				}
			}
		}
		if piecewise == 0 {
			t.Errorf("%s: no piecewise curve was covered", tc.name)
		}
	}
}

// A cell the models lack resolves with ok=false, and evaluating it panics
// with Models.Cost's message.
func TestResolvedMissingPanicsLikeCost(t *testing.T) {
	m := NewModels()
	r, ok := m.Resolve(collections.ArrayListID, OpMiddle, DimFootprint)
	if ok {
		t.Fatal("Resolve found a curve in an empty model set")
	}
	panicMessage := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	want := panicMessage(func() { m.Cost(collections.ArrayListID, OpMiddle, DimFootprint, 1) })
	if !strings.Contains(want, "no curve for list/array/middle/footprint") {
		t.Fatalf("Models.Cost panic = %q", want)
	}
	if got := panicMessage(func() { r.Cost(1) }); got != want {
		t.Errorf("Resolved.Cost panic = %q, want %q", got, want)
	}
	if got := panicMessage(func() { r.CostCI(1, 1.96) }); got != want {
		t.Errorf("Resolved.CostCI panic = %q, want %q", got, want)
	}
}
