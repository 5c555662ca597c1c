package core

import (
	"testing"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

func listCandidates() []collections.VariantID {
	out := make([]collections.VariantID, 0, 4)
	for _, v := range collections.ListVariants[int]() {
		out = append(out, v.ID)
	}
	return out
}

func setCandidates() []collections.VariantID {
	out := make([]collections.VariantID, 0, 8)
	for _, v := range collections.SetVariants[int]() {
		out = append(out, v.ID)
	}
	return out
}

func TestDecideListLookupHeavySwitchesToHashArray(t *testing.T) {
	// The Figure 5a scenario: populate to 500 then run lookups. The
	// lookup volume must amortize the hash bag's build cost (Go's int
	// scans are cheap, so the crossover sits near ~200 lookups with the
	// default models); at 500 lookups the switch is clear-cut.
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 500, Contains: 500, MaxSize: 500})
	}
	d := decide(agg, collections.ArrayListID, Rtime(), 50)
	if !d.ok {
		t.Fatal("no switch decided")
	}
	if d.switchTo != collections.HashArrayListID {
		t.Fatalf("switched to %s, want %s", d.switchTo, collections.HashArrayListID)
	}
	if r := d.ratios[0]; r >= 0.8 { // Rtime's only criterion: time
		t.Fatalf("time ratio %g, want < 0.8", r)
	}
}

func TestDecideListSmallSizesStayOnArray(t *testing.T) {
	// At size 10 the linear scan is cheap: no hash variant can promise a
	// 20% improvement, so the context must stay.
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 10, Contains: 500, MaxSize: 10})
	}
	d := decide(agg, collections.ArrayListID, Rtime(), 50)
	if d.ok {
		t.Fatalf("switched to %s at size 10", d.switchTo)
	}
}

func TestDecideSetRtimePicksOpenFast(t *testing.T) {
	// Figure 5b: chained HashSet loses to the Koloboke-like fast preset.
	agg := newCostAgg(perfmodel.Default(), setCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 500, Contains: 100, MaxSize: 500})
	}
	d := decide(agg, collections.HashSetID, Rtime(), 50)
	if !d.ok {
		t.Fatal("no switch decided")
	}
	if d.switchTo != collections.OpenHashSetFastID {
		t.Fatalf("switched to %s, want %s", d.switchTo, collections.OpenHashSetFastID)
	}
}

func TestDecideSetRallocStepsAcrossPresets(t *testing.T) {
	// Figure 5d: under Ralloc the selected preset shifts from the most
	// memory-compact at small sizes, through balanced, to fast at large
	// sizes.
	cases := []struct {
		size int64
		want collections.VariantID
	}{
		{150, collections.OpenHashSetCmpID},
		{550, collections.OpenHashSetBalID},
		{900, collections.OpenHashSetFastID},
	}
	for _, c := range cases {
		agg := newCostAgg(perfmodel.Default(), setCandidates())
		for i := 0; i < 100; i++ {
			agg.fold(Workload{Adds: c.size, Contains: 100, MaxSize: c.size})
		}
		d := decide(agg, collections.HashSetID, Ralloc(), 50)
		if !d.ok {
			t.Fatalf("size %d: no switch decided", c.size)
		}
		if d.switchTo != c.want {
			t.Fatalf("size %d: switched to %s, want %s", c.size, d.switchTo, c.want)
		}
	}
}

func TestDecideAdaptiveGatedBySizeSpread(t *testing.T) {
	models := perfmodel.Default()
	// Candidate set narrowed to {chained, adaptive} to observe the gate
	// itself: with widely ranging sizes adaptive is admitted and wins;
	// with sizes that straddle the transition threshold but spread less
	// than adaptiveSizeSpread it is excluded and nothing wins.
	candidates := []collections.VariantID{collections.HashSetID, collections.AdaptiveSetID}
	agg := newCostAgg(models, candidates)
	for i := 0; i < 90; i++ {
		agg.fold(Workload{Adds: 8, Contains: 20, MaxSize: 8})
	}
	for i := 0; i < 10; i++ {
		agg.fold(Workload{Adds: 600, Contains: 20, MaxSize: 600})
	}
	if spread := agg.sizeSpread(); spread < adaptiveSizeSpread {
		t.Fatalf("sizeSpread = %g, expected >= %d", spread, adaptiveSizeSpread)
	}
	d := decide(agg, collections.HashSetID, Ralloc(), 50)
	if !d.ok || d.switchTo != collections.AdaptiveSetID {
		t.Fatalf("spread workload: got %+v, want switch to %s", d, collections.AdaptiveSetID)
	}

	// Sizes 20 and 60 straddle the threshold of 50 but spread only 3x:
	// adaptive must be excluded by the gate, though its ratios clear
	// every criterion.
	narrow := newCostAgg(models, candidates)
	for i := 0; i < 90; i++ {
		narrow.fold(Workload{Adds: 20, Contains: 20, MaxSize: 20})
	}
	for i := 0; i < 10; i++ {
		narrow.fold(Workload{Adds: 60, Contains: 20, MaxSize: 60})
	}
	if spread := narrow.sizeSpread(); spread >= adaptiveSizeSpread {
		t.Fatalf("sizeSpread = %g, expected < %d", spread, adaptiveSizeSpread)
	}
	d, ests, _, _ := decideExplain(narrow, collections.HashSetID, Ralloc(), 50, true)
	if d.ok {
		t.Fatalf("adaptive selected (%s) despite failing the spread gate", d.switchTo)
	}
	for _, est := range ests {
		if est.Variant != collections.AdaptiveSetID {
			continue
		}
		if est.Reason != "adaptive size gate" {
			t.Fatalf("adaptive estimate reason = %q, want the size gate", est.Reason)
		}
		for _, c := range Ralloc().Criteria {
			if r := est.Ratios[c.Dimension]; r > c.Threshold {
				t.Fatalf("adaptive %s ratio %g fails its threshold %g: the gate is not what excludes it", c.Dimension, r, c.Threshold)
			}
		}
	}
}

func TestDecideFullCandidatesSpreadWorkloadPicksMemoryVariant(t *testing.T) {
	// With the full candidate set, the spread workload must still move
	// off the chained HashSet to one of the memory-oriented variants
	// under Ralloc (which one depends on the exact mix).
	agg := newCostAgg(perfmodel.Default(), setCandidates())
	for i := 0; i < 90; i++ {
		agg.fold(Workload{Adds: 8, Contains: 20, MaxSize: 8})
	}
	for i := 0; i < 10; i++ {
		agg.fold(Workload{Adds: 600, Contains: 20, MaxSize: 600})
	}
	d := decide(agg, collections.HashSetID, Ralloc(), 50)
	if !d.ok {
		t.Fatal("no switch on spread workload")
	}
	memoryish := map[collections.VariantID]bool{
		collections.AdaptiveSetID:    true,
		collections.OpenHashSetCmpID: true,
		collections.CompactHashSetID: true,
		collections.ArraySetID:       true,
		collections.OpenHashSetBalID: true,
	}
	if !memoryish[d.switchTo] {
		t.Fatalf("switched to %s, not a memory-oriented variant", d.switchTo)
	}
	if r := d.ratios[0]; r >= 0.8 { // Ralloc's first criterion: alloc
		t.Fatalf("alloc ratio %g, want < 0.8", r)
	}
}

func TestDecideUniformSizesExcludeAdaptive(t *testing.T) {
	agg := newCostAgg(perfmodel.Default(), setCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 30, Contains: 50, MaxSize: 30})
	}
	if spread := agg.sizeSpread(); spread != 1 {
		t.Fatalf("uniform spread = %g, want 1", spread)
	}
	d := decide(agg, collections.HashSetID, Ralloc(), 50)
	if d.ok && d.switchTo == collections.AdaptiveSetID {
		t.Fatal("adaptive selected for uniform sizes")
	}
}

func TestDecideEmptyAggregate(t *testing.T) {
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	if d := decide(agg, collections.ArrayListID, Rtime(), 50); d.ok {
		t.Fatal("decision from empty aggregate")
	}
}

func TestDecideUnknownCurrent(t *testing.T) {
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	agg.fold(Workload{Adds: 100, MaxSize: 100})
	if d := decide(agg, "list/bogus", Rtime(), 50); d.ok {
		t.Fatal("decision with unknown current variant")
	}
}

func TestDecideStaysWhenCurrentIsBest(t *testing.T) {
	// Already on HashArrayList with a lookup-heavy workload: nothing can
	// beat it by 20%.
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 500, Contains: 1000, MaxSize: 500})
	}
	if d := decide(agg, collections.HashArrayListID, Rtime(), 50); d.ok {
		t.Fatalf("left HashArrayList for %s on lookup-heavy workload", d.switchTo)
	}
}

func TestDecideIterationHeavyLeavesLinked(t *testing.T) {
	// Iteration plus middle-insert-heavy workload starting from
	// LinkedList: ArrayList's cheap iteration should win under Rtime
	// (the bloat LL→AL transition of Table 6).
	agg := newCostAgg(perfmodel.Default(), listCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: 200, Iterates: 50, Contains: 30, MaxSize: 200})
	}
	d := decide(agg, collections.LinkedListID, Rtime(), 50)
	if !d.ok {
		t.Fatal("no switch from LinkedList")
	}
	if d.switchTo != collections.ArrayListID {
		t.Fatalf("switched to %s, want %s", d.switchTo, collections.ArrayListID)
	}
}

func TestCostAggSpreadEdgeCases(t *testing.T) {
	agg := newCostAgg(perfmodel.Default(), setCandidates())
	if agg.sizeSpread() != 1 {
		t.Error("empty aggregate spread != 1")
	}
	agg.fold(Workload{Adds: 0, MaxSize: 0})
	if agg.sizeSpread() != 1 {
		t.Error("zero-size aggregate spread != 1")
	}
	agg.fold(Workload{Adds: 100, MaxSize: 100})
	if got := agg.sizeSpread(); got != 100 {
		t.Errorf("spread with sizes {0,100} = %g, want 100 (min clamped to 1)", got)
	}
}

func TestFoldCountsPopulations(t *testing.T) {
	// An instance populated twice to size s (2s adds) must be charged
	// two populations.
	models := perfmodel.Default()
	once := newCostAgg(models, listCandidates())
	once.fold(Workload{Adds: 500, MaxSize: 500})
	twice := newCostAgg(models, listCandidates())
	twice.fold(Workload{Adds: 1000, MaxSize: 500})
	a := once.total(0, perfmodel.DimTimeNS)
	b := twice.total(0, perfmodel.DimTimeNS)
	if b < 1.8*a || b > 2.2*a {
		t.Errorf("double population cost %g, want ~2x %g", b, a)
	}
}
