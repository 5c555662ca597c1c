package perfmodel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// jsonOf returns m's WriteJSON bytes.
func jsonOf(t *testing.T, m *Models) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// A handle keeps reading the curve it resolved, bit for bit, while 1,000
// later stores replace that curve, some with one of the same shape, and
// grow the tables past the capacity they had at the Resolve call. The
// handles are read on another goroutine during the stores too; run with
// -race.
func TestResolvedHandleSurvivesLaterStores(t *testing.T) {
	m := Default()
	// A first store leaves room in the tables, so the stores below write
	// into the arrays the handles read until they outgrow them.
	m.Set(collections.ArrayListID, OpIterate, DimAllocB, polyfit.Poly{Coeffs: []float64{0}})
	type probe struct {
		v   collections.VariantID
		op  Op
		dim Dimension
	}
	probes := []probe{
		{collections.HashSetID, OpContains, DimTimeNS},
		{collections.AdaptiveSetID, OpPopulate, DimTimeNS}, // piecewise
		{collections.ArrayListID, OpMiddle, DimEnergy},
	}
	rng := rand.New(rand.NewSource(17))
	sizes := []float64{0, 1, 10, 40, 41, 1000}
	for range 200 {
		sizes = append(sizes, rng.Float64()*1e5)
	}
	const z = 1.96
	bits := func(r Resolved) []uint64 {
		var out []uint64
		for _, s := range sizes {
			lo, hi := r.CostCI(s, z)
			out = append(out, math.Float64bits(r.Cost(s)), math.Float64bits(lo), math.Float64bits(hi))
		}
		return out
	}
	handles := make([]Resolved, len(probes))
	want := make([][]uint64, len(probes))
	for i, p := range probes {
		r, ok := m.Resolve(p.v, p.op, p.dim)
		if !ok {
			t.Fatalf("no curve %v", p)
		}
		handles[i], want[i] = r, bits(r)
	}
	check := func(what string) bool {
		for i, r := range handles {
			if got := bits(r); !slices.Equal(got, want[i]) {
				t.Errorf("%v: handle changed %s", probes[i], what)
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
				if !check("during the stores") {
					return
				}
			}
		}
	}()
	segCap, coefCap := len(m.tab.segs), len(m.tab.coef)
	extra := NewModels()
	extra.Set(collections.HashSetID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{7}})
	for i := range 1000 {
		p := probes[i%len(probes)]
		x := float64(i)
		switch i % 4 {
		case 0: // the shape of the default non-adaptive curves
			m.Set(p.v, p.op, p.dim, polyfit.Poly{Coeffs: []float64{x, 1, 0.5, 0.25}})
		case 1:
			m.SetPiecewise(p.v, p.op, p.dim, x+1, polyfit.Poly{Coeffs: []float64{x}}, polyfit.Poly{Coeffs: []float64{-x, 2}})
		case 2:
			m.OverlayMeasured(p.v, p.op, p.dim, []MeasuredPoint{{Size: 10 + x, Value: x, SE: 1}, {Size: 500 + x, Value: 2 * x}})
		case 3:
			m.Merge(extra)
		}
	}
	close(done)
	reader.Wait()
	if len(m.tab.segs) <= segCap || len(m.tab.coef) <= coefCap {
		t.Fatalf("the stores did not grow the tables: segments %d -> %d, coefficients %d -> %d", segCap, len(m.tab.segs), coefCap, len(m.tab.coef))
	}
	if got := m.Cost(collections.HashSetID, OpContains, DimTimeNS, 1e6); got != 7 {
		t.Fatalf("the last store did not take effect: cost %v, want 7", got)
	}
	check("after the stores")
}

// A clone is independent of its source in both directions, and its tables
// hold the curves its index reaches and nothing else.
func TestCloneIndependentAndCompact(t *testing.T) {
	src := Default()
	for i := range 50 {
		src.OverlayMeasured(collections.HashSetID, OpContains, DimTimeNS, []MeasuredPoint{{Size: float64(20 + i), Value: float64(i)}})
	}
	srcJSON := jsonOf(t, src)
	c := src.Clone()
	if got := jsonOf(t, c); !bytes.Equal(got, srcJSON) {
		t.Fatal("the clone does not encode like its source")
	}
	var pieces, coeffs int
	for _, cv := range c.all() {
		pieces += len(cv.pieces)
		for _, p := range cv.pieces {
			coeffs += len(p.poly.Coeffs) + len(p.vp.Coeffs)
		}
	}
	if len(c.tab.segs) != pieces || len(c.tab.coef) != coeffs || int(c.nseg) != pieces || int(c.ncoef) != coeffs {
		t.Errorf("clone tables hold %d of %d segments and %d of %d coefficients; its curves have %d and %d",
			c.nseg, len(c.tab.segs), c.ncoef, len(c.tab.coef), pieces, coeffs)
	}
	if int(src.nseg) <= pieces {
		t.Errorf("the source has no replaced curves to leave behind: %d segments", src.nseg)
	}

	mutate := func(m *Models) {
		m.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{1}})
		m.SetPiecewise(collections.AdaptiveSetID, OpPopulate, DimTimeNS, 3, polyfit.Poly{Coeffs: []float64{2}}, polyfit.Poly{Coeffs: []float64{3}})
		m.OverlayMeasured(collections.HashSetID, OpContains, DimTimeNS, []MeasuredPoint{{Size: 100, Value: 9}})
		m.Set("custom/variant", OpIterate, DimAllocB, polyfit.Poly{Coeffs: []float64{4}})
		SynthesizeEnergy(m)
	}
	mutate(c)
	if got := jsonOf(t, src); !bytes.Equal(got, srcJSON) {
		t.Error("mutating the clone changed its source")
	}
	cloneJSON := jsonOf(t, c)
	if bytes.Equal(cloneJSON, srcJSON) {
		t.Fatal("the mutations did not change the clone")
	}
	mutate(src)
	src.Merge(Default())
	if got := jsonOf(t, c); !bytes.Equal(got, cloneJSON) {
		t.Error("mutating the source changed its clone")
	}
}

// Curve hands out a view of the coefficient table; appending to it must
// copy rather than write into the next curve's coefficients.
func TestCurveAppendCannotReachOtherCurves(t *testing.T) {
	m := Default()
	before := jsonOf(t, m)
	single := 0
	for k := range m.all() {
		p, ok := m.Curve(k.Variant, k.Op, k.Dim)
		if !ok {
			continue
		}
		single++
		if cap(p.Coeffs) != len(p.Coeffs) {
			t.Fatalf("%v: Curve has capacity %d beyond its %d coefficients", k, cap(p.Coeffs), len(p.Coeffs))
		}
		_ = append(p.Coeffs, math.Inf(1), math.NaN(), -1)
	}
	if single == 0 {
		t.Fatal("no single-piece curve was covered")
	}
	if after := jsonOf(t, m); !bytes.Equal(after, before) {
		t.Error("appending to Curve results changed the model set")
	}
}

// Model sets built, decoded and queried on several goroutines at once share
// the process-wide name table; run with -race.
func TestConcurrentModelSetsShareNames(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				m := NewModels()
				v := collections.VariantID(fmt.Sprintf("concurrent/%d/%d", g, i))
				m.Set(v, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{float64(i)}})
				m.Set(collections.HashSetID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{1}})
				var b bytes.Buffer
				if err := m.WriteJSON(&b); err != nil {
					t.Error(err)
					return
				}
				back, err := ReadJSON(&b)
				if err != nil {
					t.Error(err)
					return
				}
				if got := back.Cost(v, OpContains, DimTimeNS, 5); got != float64(i) {
					t.Errorf("%s: cost %v, want %d", v, got, i)
				}
				if _, ok := back.Resolve(collections.VariantID(fmt.Sprintf("never/%d/%d", g, i)), OpContains, DimTimeNS); ok {
					t.Error("an unknown variant resolved")
				}
			}
		}()
	}
	wg.Wait()
}
