package perfmodel

import (
	"bytes"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

func TestModelsSetCostHas(t *testing.T) {
	m := NewModels()
	if m.Has(collections.ArrayListID, OpContains, DimTimeNS) {
		t.Fatal("empty models claim a curve")
	}
	m.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{4, 0.45}})
	if !m.Has(collections.ArrayListID, OpContains, DimTimeNS) {
		t.Fatal("Has = false after Set")
	}
	if got := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 100); got != 49 {
		t.Fatalf("Cost = %g, want 49", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestModelsCostClampsNegative(t *testing.T) {
	m := NewModels()
	m.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{-100, 1}})
	if got := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 10); got != 0 {
		t.Fatalf("negative cost not clamped: %g", got)
	}
}

func TestModelsCostPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cost on missing curve did not panic")
		}
	}()
	NewModels().Cost(collections.ArrayListID, OpContains, DimTimeNS, 1)
}

func TestModelsVariantsSorted(t *testing.T) {
	m := NewModels()
	p := polyfit.Poly{Coeffs: []float64{1}}
	m.Set(collections.HashSetID, OpContains, DimTimeNS, p)
	m.Set(collections.ArrayListID, OpContains, DimTimeNS, p)
	vs := m.Variants()
	if len(vs) != 2 || vs[0] != collections.ArrayListID || vs[1] != collections.HashSetID {
		t.Fatalf("Variants = %v", vs)
	}
}

func TestModelsMerge(t *testing.T) {
	a := NewModels()
	b := NewModels()
	a.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{1}})
	b.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{2}})
	b.Set(collections.HashSetID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{3}})
	a.Merge(b)
	if got := a.Cost(collections.ArrayListID, OpContains, DimTimeNS, 0); got != 2 {
		t.Fatalf("Merge did not overwrite: %g", got)
	}
	if a.Len() != 2 {
		t.Fatalf("Len after merge = %d, want 2", a.Len())
	}
}

func TestDefaultCoversEveryVariantOpDimension(t *testing.T) {
	m := Default()
	for _, info := range collections.AllVariantInfos() {
		for _, op := range Ops() {
			for _, dim := range Dimensions() {
				if !m.Has(info.ID, op, dim) {
					t.Errorf("missing default curve %s/%s/%s", info.ID, op, dim)
				}
			}
		}
	}
}

func TestDefaultFitTracksAnalytic(t *testing.T) {
	// The fitted cubic must track the analytic function closely at the
	// plan sizes for smooth (non-piecewise) variants.
	m := Default()
	for _, v := range []collections.VariantID{
		collections.ArrayListID, collections.HashSetID, collections.OpenHashMapFastID,
	} {
		for _, s := range []float64{10, 100, 500, 1000} {
			want, ok := AnalyticCost(v, OpContains, DimTimeNS, s)
			if !ok {
				t.Fatalf("no analytic cost for %s", v)
			}
			got := m.Cost(v, OpContains, DimTimeNS, s)
			if math.Abs(got-want) > 0.05*want+1 {
				t.Errorf("%s contains at %g: fitted %g vs analytic %g", v, s, got, want)
			}
		}
	}
}

func TestDefaultOrderingsMatchPaper(t *testing.T) {
	m := Default()
	// At size 500, a contains on ArrayList must be far costlier than on
	// HashArrayList (the Figure 5a premise).
	al := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 500)
	hal := m.Cost(collections.HashArrayListID, OpContains, DimTimeNS, 500)
	if al < 3*hal {
		t.Errorf("ArrayList contains (%g) should dwarf HashArrayList (%g) at 500", al, hal)
	}
	// At size 10 the opposite holds: the array scan is cheap.
	al10 := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 10)
	hal10 := m.Cost(collections.HashArrayListID, OpContains, DimTimeNS, 10)
	if al10 > hal10 {
		t.Errorf("ArrayList contains (%g) should beat HashArrayList (%g) at 10", al10, hal10)
	}
	// Populating a chained HashSet must cost more than an open-hash set
	// (entry boxing), and allocate more (Figure 5b/d premise).
	chained := m.Cost(collections.HashSetID, OpPopulate, DimTimeNS, 500)
	open := m.Cost(collections.OpenHashSetFastID, OpPopulate, DimTimeNS, 500)
	if chained < open {
		t.Errorf("chained populate (%g) should cost more than open (%g)", chained, open)
	}
	chainedA := m.Cost(collections.HashSetID, OpPopulate, DimAllocB, 500)
	compactA := m.Cost(collections.OpenHashSetCmpID, OpPopulate, DimAllocB, 500)
	fastA := m.Cost(collections.OpenHashSetFastID, OpPopulate, DimAllocB, 500)
	if !(compactA < fastA && fastA < chainedA) {
		t.Errorf("alloc ordering compact (%g) < fast (%g) < chained (%g) violated",
			compactA, fastA, chainedA)
	}
	// The compact preset's time must degrade with size faster than the
	// fast preset's — the driver of the Figure 5d/e multi-step switch.
	ratioSmall := m.Cost(collections.OpenHashSetCmpID, OpPopulate, DimTimeNS, 100) /
		m.Cost(collections.OpenHashSetFastID, OpPopulate, DimTimeNS, 100)
	ratioLarge := m.Cost(collections.OpenHashSetCmpID, OpPopulate, DimTimeNS, 1000) /
		m.Cost(collections.OpenHashSetFastID, OpPopulate, DimTimeNS, 1000)
	if ratioLarge <= ratioSmall {
		t.Errorf("compact/fast time ratio should grow with size: %g -> %g", ratioSmall, ratioLarge)
	}
}

func TestDefaultAdaptivePiecewise(t *testing.T) {
	m := Default()
	// A cubic fitted over the full 10..1000 sweep cannot hug the array
	// regime tightly (only one plan size sits below the threshold), but
	// the adaptive set's modeled footprint below the threshold must still
	// undercut the chained hash set's — the paper's memory claim.
	thr := float64(collections.DefaultSetThreshold)
	small := m.Cost(collections.AdaptiveSetID, OpPopulate, DimFootprint, thr/2)
	chainedFoot := m.Cost(collections.HashSetID, OpPopulate, DimFootprint, thr/2)
	if small >= chainedFoot {
		t.Errorf("adaptive footprint below threshold %g should undercut chained %g", small, chainedFoot)
	}
	big := m.Cost(collections.AdaptiveSetID, OpContains, DimTimeNS, 800)
	open := m.Cost(collections.OpenHashSetFastID, OpContains, DimTimeNS, 800)
	arrBig := m.Cost(collections.ArraySetID, OpContains, DimTimeNS, 800)
	if big > arrBig/4 {
		t.Errorf("adaptive contains at 800 (%g) should be hash-like, array is %g", big, arrBig)
	}
	_ = open
}

func TestJSONRoundTrip(t *testing.T) {
	m := Default()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != m.Len() {
		t.Fatalf("round trip lost curves: %d -> %d", m.Len(), back.Len())
	}
	for _, v := range m.Variants() {
		for _, op := range Ops() {
			for _, dim := range Dimensions() {
				if !m.Has(v, op, dim) {
					continue
				}
				for _, s := range []float64{10, 500} {
					a, b := m.Cost(v, op, dim, s), back.Cost(v, op, dim, s)
					if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
						t.Fatalf("%s/%s/%s at %g: %g != %g", v, op, dim, s, a, b)
					}
				}
			}
		}
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"curves":[{"variant":"x","op":"y","dimension":"z","coeffs":[]}]}`)); err == nil {
		t.Error("empty coefficient vector accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := Default()
	path := filepath.Join(t.TempDir(), "models.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != m.Len() {
		t.Fatalf("file round trip lost curves: %d -> %d", m.Len(), back.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestDefaultPlanMatchesTable3(t *testing.T) {
	p := DefaultPlan()
	if p.Sizes[0] != 10 || p.Sizes[1] != 50 || p.Sizes[2] != 100 {
		t.Fatalf("plan sizes start %v", p.Sizes[:3])
	}
	if p.Sizes[len(p.Sizes)-1] != 1000 {
		t.Fatalf("plan sizes end at %d, want 1000", p.Sizes[len(p.Sizes)-1])
	}
	if len(p.Ops) != 4 || p.Degree != 3 {
		t.Fatalf("plan ops/degree = %d/%d", len(p.Ops), p.Degree)
	}
	if p.WarmupIters != 15 || p.MeasureIters != 30 {
		t.Fatalf("plan iterations = %d/%d, want 15/30", p.WarmupIters, p.MeasureIters)
	}
}

// quickListProgress counts the Progress callbacks of the quickLists build.
var quickListProgress int

// quickLists builds the list models of a quick plan over sizes {10, 50, 200}
// once per test binary, for every test that needs measured list curves: a
// build is the slowest step of this package's tests. A test that changes
// the models works on a Clone.
var quickLists = sync.OnceValues(func() (*Models, error) {
	plan := QuickPlan()
	plan.Sizes = []int{10, 50, 200}
	b := NewBuilder(plan)
	b.Progress = func(collections.VariantID, Op) { quickListProgress++ }
	return b.BuildLists()
})

func TestBuilderQuickPlanLists(t *testing.T) {
	if testing.Short() {
		t.Skip("builder benchmarks are slow")
	}
	m, err := quickLists()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range collections.ListVariants[int]() {
		for _, op := range Ops() {
			if !m.Has(v.ID, op, DimTimeNS) {
				t.Errorf("missing measured curve %s/%s", v.ID, op)
			}
			if !m.Has(v.ID, op, DimFootprint) {
				t.Errorf("missing footprint curve %s/%s", v.ID, op)
			}
		}
	}
	if quickListProgress == 0 {
		t.Error("progress callback never invoked")
	}
	// Sanity: the measured ArrayList contains cost must grow with size.
	small := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 10)
	large := m.Cost(collections.ArrayListID, OpContains, DimTimeNS, 200)
	if large <= small {
		t.Errorf("measured ArrayList contains does not grow: %g -> %g", small, large)
	}
}
