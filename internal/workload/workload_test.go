package workload

import (
	"testing"

	"repro/internal/collections"
)

func TestSinglePhaseListDeterministicSink(t *testing.T) {
	mk := func() collections.List[int] { return collections.NewArrayList[int]() }
	_, sink1 := SinglePhaseList(mk, 10, 50, 20, 7, 0, nil)
	_, sink2 := SinglePhaseList(mk, 10, 50, 20, 7, 0, nil)
	if sink1 != sink2 {
		t.Fatalf("same seed produced different sinks: %d vs %d", sink1, sink2)
	}
	if sink1 == 0 {
		t.Fatal("no lookups ever hit; probe generation broken")
	}
}

func TestSinglePhaseVariantsAgreeOnSink(t *testing.T) {
	// Every list variant must produce the same lookup hit count — the
	// workload is semantic, the variant only changes performance.
	var want int
	for i, v := range collections.ListVariants[int]() {
		_, sink := SinglePhaseList(func() collections.List[int] { return v.New(0) }, 5, 80, 30, 3, 0, nil)
		if i == 0 {
			want = sink
			continue
		}
		if sink != want {
			t.Fatalf("%s sink = %d, want %d", v.ID, sink, want)
		}
	}
}

func TestSinglePhaseSetAndMap(t *testing.T) {
	var setSink int
	for i, v := range collections.SetVariants[int]() {
		_, sink := SinglePhaseSet(func() collections.Set[int] { return v.New(0) }, 5, 60, 30, 11, 0, nil)
		if i == 0 {
			setSink = sink
		} else if sink != setSink {
			t.Fatalf("%s sink = %d, want %d", v.ID, sink, setSink)
		}
	}
	var mapSink int
	for i, v := range collections.MapVariants[int, int]() {
		_, sink := SinglePhaseMap(func() collections.Map[int, int] { return v.New(0) }, 5, 60, 30, 11, 0, nil)
		if i == 0 {
			mapSink = sink
		} else if sink != mapSink {
			t.Fatalf("%s sink = %d, want %d", v.ID, sink, mapSink)
		}
	}
}

func TestSinglePhaseMeasuresAllocation(t *testing.T) {
	res, _ := SinglePhaseSet(func() collections.Set[int] { return collections.NewHashSet[int]() }, 50, 100, 10, 1, 0, nil)
	if res.AllocBytes == 0 {
		t.Fatal("no allocation measured for 50 hash sets of 100 elements")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no time measured")
	}
}

func TestSinglePhaseAllocOrdering(t *testing.T) {
	// Chained sets must allocate more than open-addressing sets in the
	// same scenario — the premise of Figure 5d.
	chained, _ := SinglePhaseSet(func() collections.Set[int] { return collections.NewHashSet[int]() }, 200, 200, 0, 1, 0, nil)
	open, _ := SinglePhaseSet(func() collections.Set[int] {
		return collections.NewOpenHashSetPreset[int](collections.OpenCompact, 0)
	}, 200, 200, 0, 1, 0, nil)
	if open.AllocBytes >= chained.AllocBytes {
		t.Fatalf("open-compact allocated %d >= chained %d", open.AllocBytes, chained.AllocBytes)
	}
}

func TestMultiPhasePhases(t *testing.T) {
	ph := Phases()
	if len(ph) != 5 {
		t.Fatalf("phases = %v", ph)
	}
	if ph[0] != PhaseContains || ph[3] != PhaseSearchRemove {
		t.Fatalf("phase order wrong: %v", ph)
	}
}

func TestMultiPhaseIterationAllPhases(t *testing.T) {
	for _, phase := range Phases() {
		for _, v := range collections.ListVariants[int]() {
			elapsed, sink := MultiPhaseIteration(
				func() collections.List[int] { return v.New(0) },
				phase, 3, 50, 20, 5, 0, nil)
			if elapsed <= 0 {
				t.Errorf("%s/%s: no time measured", phase, v.ID)
			}
			if phase == PhaseIteration && sink == 0 {
				t.Errorf("%s/%s: iteration sink is zero", phase, v.ID)
			}
		}
	}
}

func TestMultiPhaseSearchRemoveShrinks(t *testing.T) {
	// The search-and-remove phase must actually remove elements it hits.
	removed := 0
	mk := func() collections.List[int] {
		l := collections.NewArrayList[int]()
		return l
	}
	_, sink := MultiPhaseIteration(mk, PhaseSearchRemove, 1, 100, 100, 9, 0, nil)
	removed = sink
	if removed == 0 {
		t.Fatal("search-and-remove never removed anything")
	}
	if removed > 100 {
		t.Fatalf("removed %d out of 100 elements", removed)
	}
}

func TestHookVariantsInvokeHook(t *testing.T) {
	mkList := func() collections.List[int] { return collections.NewArrayList[int]() }
	calls := 0
	res, sink := SinglePhaseList(mkList, 40, 30, 10, 3, 10, func() { calls++ })
	if calls != 4 {
		t.Errorf("list hook called %d times, want 4", calls)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	// A hook must not change results versus a nil-hook run.
	_, plainSink := SinglePhaseList(mkList, 40, 30, 10, 3, 0, nil)
	if sink != plainSink {
		t.Errorf("hooked list sink %d != plain %d", sink, plainSink)
	}

	mkSet := func() collections.Set[int] { return collections.NewHashSet[int]() }
	calls = 0
	_, setSink := SinglePhaseSet(mkSet, 25, 30, 10, 3, 5, func() { calls++ })
	if calls != 5 {
		t.Errorf("set hook called %d times, want 5", calls)
	}
	_, plainSetSink := SinglePhaseSet(mkSet, 25, 30, 10, 3, 0, nil)
	if setSink != plainSetSink {
		t.Errorf("hooked set sink %d != plain %d", setSink, plainSetSink)
	}

	mkMap := func() collections.Map[int, int] { return collections.NewHashMap[int, int]() }
	calls = 0
	_, mapSink := SinglePhaseMap(mkMap, 25, 30, 10, 3, 25, func() { calls++ })
	if calls != 1 {
		t.Errorf("map hook called %d times, want 1", calls)
	}
	_, plainMapSink := SinglePhaseMap(mkMap, 25, 30, 10, 3, 0, nil)
	if mapSink != plainMapSink {
		t.Errorf("hooked map sink %d != plain %d", mapSink, plainMapSink)
	}
}

func TestMultiPhaseHookMatchesPlain(t *testing.T) {
	mk := func() collections.List[int] { return collections.NewArrayList[int]() }
	for _, phase := range Phases() {
		_, plain := MultiPhaseIteration(mk, phase, 10, 40, 20, 5, 0, nil)
		calls := 0
		_, hooked := MultiPhaseIteration(mk, phase, 10, 40, 20, 5, 5, func() { calls++ })
		if plain != hooked {
			t.Errorf("%s: hooked sink %d != plain %d", phase, hooked, plain)
		}
		if calls != 2 {
			t.Errorf("%s: hook called %d times, want 2", phase, calls)
		}
	}
}

func TestHookZeroEveryRunsOnce(t *testing.T) {
	mk := func() collections.List[int] { return collections.NewArrayList[int]() }
	calls := 0
	_, hooked := SinglePhaseList(mk, 10, 10, 5, 1, 0, func() { calls++ })
	if calls != 1 {
		t.Errorf("every<=0 should hook once at the end, got %d", calls)
	}
	if _, plain := SinglePhaseList(mk, 10, 10, 5, 1, 0, nil); hooked != plain {
		t.Errorf("hooked sink %d != plain %d", hooked, plain)
	}
}
