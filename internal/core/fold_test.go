package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// refFold is fold written with by-key model lookups: Models.Cost and
// Models.CostCI for every candidate, dimension and op of every instance. It
// accumulates into tc (and, when z > 0, lo and hi) shaped like a costAgg's.
func refFold(models *perfmodel.Models, candidates []collections.VariantID, dims []perfmodel.Dimension, z float64, w Workload, tc, lo, hi [][]float64) {
	s := float64(w.MaxSize)
	if s < 1 {
		s = 1
	}
	popN := float64(w.Adds) / s
	for ci, v := range candidates {
		for di, dim := range dims {
			if dim == perfmodel.DimFootprint {
				tc[ci][di] += models.Cost(v, perfmodel.OpPopulate, dim, s)
				if z > 0 {
					l, h := models.CostCI(v, perfmodel.OpPopulate, dim, s, z)
					lo[ci][di] += l
					hi[ci][di] += h
				}
				continue
			}
			c := popN * models.Cost(v, perfmodel.OpPopulate, dim, s)
			c += float64(w.Contains) * models.Cost(v, perfmodel.OpContains, dim, s)
			c += float64(w.Iterates) * models.Cost(v, perfmodel.OpIterate, dim, s)
			c += float64(w.Middles) * models.Cost(v, perfmodel.OpMiddle, dim, s)
			tc[ci][di] += c
			if z > 0 {
				lp, hp := models.CostCI(v, perfmodel.OpPopulate, dim, s, z)
				lc, hc := models.CostCI(v, perfmodel.OpContains, dim, s, z)
				li, hit := models.CostCI(v, perfmodel.OpIterate, dim, s, z)
				lm, hm := models.CostCI(v, perfmodel.OpMiddle, dim, s, z)
				lo[ci][di] += popN*lp + float64(w.Contains)*lc + float64(w.Iterates)*li + float64(w.Middles)*lm
				hi[ci][di] += popN*hp + float64(w.Contains)*hc + float64(w.Iterates)*hit + float64(w.Middles)*hm
			}
		}
	}
}

func zeroTotals(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

// sameBits reports the first cell where an aggregate's flat totals (row
// ci*cols+di) and a reference table differ in any bit.
func sameBits(got []float64, want [][]float64) (ci, di int, ok bool) {
	for ci := range want {
		for di := range want[ci] {
			if math.Float64bits(got[ci*len(want[ci])+di]) != math.Float64bits(want[ci][di]) {
				return ci, di, false
			}
		}
	}
	return 0, 0, true
}

// varianceSetModels is the default model set with measured overlays that
// carry a standard error on every set candidate's contains and populate
// time curves, so armed folds accumulate intervals of nonzero width.
func varianceSetModels() *perfmodel.Models {
	m := perfmodel.Default().Clone()
	for i, v := range setCandidates() {
		for _, op := range []perfmodel.Op{perfmodel.OpContains, perfmodel.OpPopulate} {
			base := m.Cost(v, op, perfmodel.DimTimeNS, 100)
			m.OverlayMeasured(v, op, perfmodel.DimTimeNS, []perfmodel.MeasuredPoint{
				{Size: 20, Value: base * 0.9, SE: 1 + float64(i)},
				{Size: 400, Value: base * 1.1, SE: 0.5 * base},
			})
		}
	}
	return m
}

// TestResolvedFoldMatchesModelLookups pins the fold over once-resolved
// curves to refFold: the tc, lo and hi totals agree bit for bit over seeded
// workloads, on every dimension and on the rule dimensions alone, with and
// without interval accumulation.
func TestResolvedFoldMatchesModelLookups(t *testing.T) {
	for k, tc := range []struct {
		name   string
		models *perfmodel.Models
		cands  []collections.VariantID
		dims   []perfmodel.Dimension
	}{
		{"default/set/all-dims", perfmodel.Default(), setCandidates(), perfmodel.Dimensions()},
		{"default/list/all-dims", perfmodel.Default(), listCandidates(), perfmodel.Dimensions()},
		{"variance/set/rtime", varianceSetModels(), setCandidates(), []perfmodel.Dimension{perfmodel.DimTimeNS}},
		{"variance/set/all-dims", varianceSetModels(), setCandidates(), perfmodel.Dimensions()},
	} {
		for _, z := range []float64{0, 1.96} {
			agg := newCostAggDims(tc.models, tc.cands, tc.dims)
			agg.setConfidence(z)
			rows, cols := len(tc.cands), len(tc.dims)
			tcRef, loRef, hiRef := zeroTotals(rows, cols), zeroTotals(rows, cols), zeroTotals(rows, cols)
			rng := rand.New(rand.NewSource(int64(k + 1)))
			for i := 0; i < 300; i++ {
				size := int64(rng.Intn(5000)) // 0 exercises the size floor of 1
				w := Workload{
					Adds: size * int64(rng.Intn(3)), Contains: int64(rng.Intn(2000)),
					Iterates: int64(rng.Intn(50)), Middles: int64(rng.Intn(50)), MaxSize: size,
				}
				agg.fold(w)
				refFold(tc.models, tc.cands, tc.dims, z, w, tcRef, loRef, hiRef)
			}
			if ci, di, ok := sameBits(agg.tc, tcRef); !ok {
				t.Fatalf("%s z=%g: tc[%s][%s] = %v, by-key fold %v", tc.name, z, tc.cands[ci], tc.dims[di], agg.tc[ci*cols+di], tcRef[ci][di])
			}
			if z == 0 {
				if agg.lo != nil || agg.hi != nil {
					t.Fatalf("%s: unarmed aggregate accumulated intervals", tc.name)
				}
				continue
			}
			if ci, di, ok := sameBits(agg.lo, loRef); !ok {
				t.Fatalf("%s: lo[%s][%s] = %v, by-key fold %v", tc.name, tc.cands[ci], tc.dims[di], agg.lo[ci*cols+di], loRef[ci][di])
			}
			if ci, di, ok := sameBits(agg.hi, hiRef); !ok {
				t.Fatalf("%s: hi[%s][%s] = %v, by-key fold %v", tc.name, tc.cands[ci], tc.dims[di], agg.hi[ci*cols+di], hiRef[ci][di])
			}
			if tc.name == "variance/set/rtime" && agg.lo[0] == agg.hi[0] {
				t.Fatalf("%s: zero-width interval, the variance overlay was not exercised", tc.name)
			}
		}
	}
}

// The analysis pass folds every finished instance and decides once per
// window; neither may allocate — except a decision that switches, which
// keeps its winner's ratios.
func TestFoldAndDecideAllocateNothing(t *testing.T) {
	w := Workload{Adds: 200, Contains: 100, Iterates: 3, Middles: 1, MaxSize: 200}
	for _, z := range []float64{0, 1.96} {
		agg := newCostAgg(varianceSetModels(), setCandidates())
		agg.setConfidence(z)
		if n := testing.AllocsPerRun(100, func() { agg.fold(w) }); n != 0 {
			t.Errorf("fold (z=%g) allocates %v times per instance", z, n)
		}
	}

	agg := newCostAgg(perfmodel.Default(), setCandidates())
	for i := 0; i < 100; i++ {
		size := int64(10 + (i%50)*20)
		agg.fold(Workload{Adds: size, Contains: 100, Iterates: 2, MaxSize: size})
	}
	if d := decide(agg, collections.HashSetID, ImpossibleRule(), collections.DefaultSetThreshold); d.ok {
		t.Fatalf("impossible rule switched to %s", d.switchTo)
	}
	n := testing.AllocsPerRun(100, func() {
		decide(agg, collections.HashSetID, ImpossibleRule(), collections.DefaultSetThreshold)
	})
	if n != 0 {
		t.Errorf("decide with no eligible candidate allocates %v times", n)
	}
}

// A candidate the models cannot price still panics with Models.Cost's
// message when folded, so an aggregate built outside siteCore.buildAgg
// (DecisionOverheadNs, tests) never compares a modeled variant with an
// unmodeled one.
func TestFoldPanicsOnMissingCurve(t *testing.T) {
	models := flatModels(map[collections.VariantID]float64{collections.ArrayListID: 100})
	panicMessage := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	want := panicMessage(func() {
		models.Cost(collections.LinkedListID, perfmodel.OpPopulate, perfmodel.DimTimeNS, 1)
	})
	if !strings.Contains(want, "no curve for") {
		t.Fatalf("Models.Cost on a missing curve: %q, want its no-curve panic", want)
	}
	agg := newCostAggDims(models, []collections.VariantID{collections.ArrayListID, collections.LinkedListID},
		[]perfmodel.Dimension{perfmodel.DimTimeNS})
	got := panicMessage(func() { agg.fold(Workload{Adds: 10, Contains: 5, MaxSize: 10}) })
	if got != want {
		t.Fatalf("fold over an unpriced candidate panicked with %q, want Models.Cost's %q", got, want)
	}
}
