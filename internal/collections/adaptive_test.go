package collections

import "testing"

func TestAdaptiveListTransitionsAtThreshold(t *testing.T) {
	l := NewAdaptiveListThreshold[int](10)
	for i := 0; i < 10; i++ {
		l.Add(i)
		if l.Transitioned() {
			t.Fatalf("transitioned at size %d, threshold 10", i+1)
		}
	}
	l.Add(10)
	if !l.Transitioned() {
		t.Fatal("did not transition past threshold")
	}
	// All elements survive the transition, in order.
	for i := 0; i <= 10; i++ {
		if got := l.Get(i); got != i {
			t.Fatalf("Get(%d) = %d after transition", i, got)
		}
		if !l.Contains(i) {
			t.Fatalf("Contains(%d) = false after transition", i)
		}
	}
}

func TestAdaptiveListTransitionViaInsert(t *testing.T) {
	l := NewAdaptiveListThreshold[int](3)
	for i := 0; i < 3; i++ {
		l.Add(i)
	}
	l.Insert(1, 99)
	if !l.Transitioned() {
		t.Fatal("Insert crossing the threshold did not transition")
	}
	want := []int{0, 99, 1, 2}
	for i, w := range want {
		if got := l.Get(i); got != w {
			t.Fatalf("Get(%d) = %d, want %d", i, got, w)
		}
	}
}

// checkBag asserts the hash form's bag is exactly the multiset of its
// element slice, NaN left out — the invariant the adopted-slice transition
// must preserve. A list without a bag (an AdaptiveList before its
// transition) passes.
func checkBag[T comparable](t *testing.T, l *HashArrayList[T]) {
	t.Helper()
	if l.bag == nil {
		return
	}
	want := make(map[T]int32, len(l.elems))
	for _, e := range l.elems {
		if e == e {
			want[e]++
		}
	}
	if len(want) != len(l.bag) {
		t.Fatalf("bag has %d distinct elements, want %d", len(l.bag), len(want))
	}
	for v, n := range want {
		if l.bag[v] != n {
			t.Fatalf("bag[%v] = %d, want %d", v, l.bag[v], n)
		}
	}
}

func TestAdaptiveListBagConsistencyAfterInsertTransition(t *testing.T) {
	// The transition adopts the array's backing slice (no copy), including
	// duplicates; every later mutation through the hash form must keep the
	// bag in lockstep with that adopted slice.
	l := NewAdaptiveListThreshold[int](4)
	for _, v := range []int{1, 2, 2, 3} {
		l.Add(v)
	}
	l.Insert(2, 2) // crosses the threshold mid-Insert: [1 2 2 2 3]
	if !l.Transitioned() {
		t.Fatal("Insert crossing the threshold did not transition")
	}
	checkBag(t, &l.HashArrayList)

	// Set over a duplicate: the bag count for 2 drops, 9 appears.
	if old := l.Set(1, 9); old != 2 {
		t.Fatalf("Set returned %d, want 2", old)
	}
	checkBag(t, &l.HashArrayList)
	// Set an element to itself: counts unchanged.
	l.Set(0, 1)
	checkBag(t, &l.HashArrayList)
	// Remove one of the remaining duplicates; the other must stay visible.
	if !l.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	checkBag(t, &l.HashArrayList)
	if !l.Contains(2) {
		t.Fatal("second duplicate lost after removing the first")
	}
	l.RemoveAt(l.Len() - 1)
	checkBag(t, &l.HashArrayList)

	want := []int{1, 9, 2}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	for i, w := range want {
		if got := l.Get(i); got != w {
			t.Fatalf("Get(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestAdaptiveListClearReverts(t *testing.T) {
	l := NewAdaptiveListThreshold[int](2)
	for i := 0; i < 5; i++ {
		l.Add(i)
	}
	if !l.Transitioned() {
		t.Fatal("expected transition")
	}
	l.Clear()
	if l.Transitioned() {
		t.Fatal("Clear did not revert to array representation")
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after Clear", l.Len())
	}
}

func TestAdaptiveListDefaultThreshold(t *testing.T) {
	l := NewAdaptiveList[int]()
	for i := 0; i < DefaultListThreshold; i++ {
		l.Add(i)
	}
	if l.Transitioned() {
		t.Fatal("transitioned at the threshold, should be strictly above")
	}
	l.Add(DefaultListThreshold)
	if !l.Transitioned() {
		t.Fatal("did not transition above default threshold")
	}
}

func TestAdaptiveSetTransitionsAtThreshold(t *testing.T) {
	s := NewAdaptiveSetThreshold[int](8)
	for i := 0; i < 8; i++ {
		s.Add(i)
		if s.Transitioned() {
			t.Fatalf("transitioned at size %d, threshold 8", i+1)
		}
	}
	// Duplicate adds must not trigger a transition (size unchanged).
	s.Add(0)
	if s.Transitioned() {
		t.Fatal("duplicate add triggered transition")
	}
	s.Add(8)
	if !s.Transitioned() {
		t.Fatal("did not transition past threshold")
	}
	for i := 0; i <= 8; i++ {
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after transition", i)
		}
	}
	if s.Len() != 9 {
		t.Fatalf("Len = %d, want 9", s.Len())
	}
}

func TestAdaptiveSetFootprintDropsVsHash(t *testing.T) {
	// Below the threshold, the adaptive set must be much smaller than a
	// chained hash set of the same contents — that is its whole point.
	small := NewAdaptiveSet[int]()
	chained := NewHashSet[int]()
	for i := 0; i < 20; i++ {
		small.Add(i)
		chained.Add(i)
	}
	if small.Transitioned() {
		t.Fatal("should not have transitioned at size 20")
	}
	if small.FootprintBytes() >= chained.FootprintBytes() {
		t.Fatalf("adaptive (array) footprint %d >= chained %d",
			small.FootprintBytes(), chained.FootprintBytes())
	}
}

func TestAdaptiveMapTransitionsAtThreshold(t *testing.T) {
	m := NewAdaptiveMapThreshold[int, string](6)
	for i := 0; i < 6; i++ {
		m.Put(i, "v")
		if m.Transitioned() {
			t.Fatalf("transitioned at size %d, threshold 6", i+1)
		}
	}
	// Overwrites must not trigger a transition.
	m.Put(0, "w")
	if m.Transitioned() {
		t.Fatal("overwrite triggered transition")
	}
	m.Put(6, "v")
	if !m.Transitioned() {
		t.Fatal("did not transition past threshold")
	}
	if got, ok := m.Get(0); !ok || got != "w" {
		t.Fatalf("Get(0) = %q, %v after transition", got, ok)
	}
	for i := 1; i <= 6; i++ {
		if got, ok := m.Get(i); !ok || got != "v" {
			t.Fatalf("Get(%d) = %q, %v after transition", i, got, ok)
		}
	}
}

func TestAdaptiveZeroThreshold(t *testing.T) {
	// Threshold 0 means transition on the first element.
	l := NewAdaptiveListThreshold[int](0)
	l.Add(1)
	if !l.Transitioned() {
		t.Fatal("list with threshold 0 did not transition on first Add")
	}
	s := NewAdaptiveSetThreshold[int](0)
	s.Add(1)
	if !s.Transitioned() {
		t.Fatal("set with threshold 0 did not transition on first Add")
	}
	m := NewAdaptiveMapThreshold[int, int](0)
	m.Put(1, 1)
	if !m.Transitioned() {
		t.Fatal("map with threshold 0 did not transition on first Put")
	}
}

func TestAdaptiveNegativeThresholdClamped(t *testing.T) {
	l := NewAdaptiveListThreshold[int](-5)
	l.Add(1)
	if !l.Transitioned() {
		t.Fatal("negative threshold not clamped to 0")
	}
}

func TestAdaptiveImplementsAdaptiveInterface(t *testing.T) {
	var _ Adaptive = NewAdaptiveList[int]()
	var _ Adaptive = NewAdaptiveSet[int]()
	var _ Adaptive = NewAdaptiveMap[int, int]()
	// Non-adaptive variants must not satisfy it.
	var l any = NewArrayList[int]()
	if _, ok := l.(Adaptive); ok {
		t.Fatal("ArrayList should not implement Adaptive")
	}
}

func TestIsAdaptive(t *testing.T) {
	for _, id := range []VariantID{AdaptiveListID, AdaptiveSetID, AdaptiveMapID} {
		if !IsAdaptive(id) {
			t.Errorf("IsAdaptive(%s) = false", id)
		}
	}
	for _, id := range []VariantID{ArrayListID, HashSetID, OpenHashMapFastID} {
		if IsAdaptive(id) {
			t.Errorf("IsAdaptive(%s) = true", id)
		}
	}
}

func TestVariantRegistryComplete(t *testing.T) {
	infos := AllVariantInfos()
	if len(infos) != 20 {
		t.Fatalf("registry has %d variants, want 20", len(infos))
	}
	counts := map[Abstraction]int{}
	seen := map[VariantID]bool{}
	for _, info := range infos {
		if seen[info.ID] {
			t.Errorf("duplicate variant ID %s", info.ID)
		}
		seen[info.ID] = true
		counts[info.Abstraction]++
	}
	if counts[ListAbstraction] != 4 || counts[SetAbstraction] != 8 || counts[MapAbstraction] != 8 {
		t.Fatalf("abstraction counts = %v, want list:4 set:8 map:8", counts)
	}
	// Every registered variant must be constructible through the factory
	// helpers and satisfy Sizer.
	for _, info := range infos {
		switch info.Abstraction {
		case ListAbstraction:
			l := NewListOf[int](info.ID, 16)
			l.Add(1)
			if _, ok := l.(Sizer); !ok {
				t.Errorf("%s does not implement Sizer", info.ID)
			}
			if AbstractionOf(info.ID) != ListAbstraction {
				t.Errorf("AbstractionOf(%s) wrong", info.ID)
			}
		case SetAbstraction:
			s := NewSetOf[int](info.ID, 16)
			s.Add(1)
			if _, ok := s.(Sizer); !ok {
				t.Errorf("%s does not implement Sizer", info.ID)
			}
		case MapAbstraction:
			m := NewMapOf[int, int](info.ID, 16)
			m.Put(1, 1)
			if _, ok := m.(Sizer); !ok {
				t.Errorf("%s does not implement Sizer", info.ID)
			}
		}
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewListOf with unknown ID did not panic")
		}
	}()
	NewListOf[int]("list/bogus", 0)
}
