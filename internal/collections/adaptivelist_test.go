package collections

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// AdaptiveList is a HashArrayList whose bag stays nil until the list first
// exceeds its threshold. These tests pin the transition's bag sizing, the
// equivalence of the two list forms, and the bag's treatment of NaN and of
// uncomparable interface values.

// TestAdaptiveListBagSizedForGrowth grows a list from empty to twice the
// size at its transition. The bag is built once, at the transition, and
// sized so that no later Add grows it: with the slice's capacity reserved
// up front, the Adds after the transition allocate nothing.
func TestAdaptiveListBagSizedForGrowth(t *testing.T) {
	const threshold = DefaultListThreshold
	n := 2 * (threshold + 1)
	l := NewAdaptiveListThreshold[int](threshold)
	l.elems = make([]int, 0, n)
	for i := 0; i <= threshold; i++ {
		if l.bag != nil {
			t.Fatalf("bag built at %d elements, threshold %d", i, threshold)
		}
		l.Add(i)
	}
	if !l.Transitioned() {
		t.Fatalf("no transition at %d elements", l.Len())
	}
	bag := reflect.ValueOf(l.bag).UnsafePointer()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := threshold + 1; i < n; i++ {
		l.Add(i)
	}
	runtime.ReadMemStats(&after)

	if got := reflect.ValueOf(l.bag).UnsafePointer(); got != bag {
		t.Fatal("the bag was rebuilt after the transition")
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 {
		t.Fatalf("growing from %d to %d elements allocated %d times; the bag grew", threshold+1, n, mallocs)
	}
	checkBag(t, &l.HashArrayList)
}

// TestAdaptiveListMatchesHashArrayList drives one op script, rich in
// duplicates, through an AdaptiveList and a HashArrayList. The script grows
// the list past the threshold, shrinks it below, and grows it again, so
// every op runs on both sides of the transition. After every op the two
// lists must agree on Len, Get, IndexOf and Contains, and each bag must be
// exactly the multiset of its elements.
func TestAdaptiveListMatchesHashArrayList(t *testing.T) {
	const threshold, domain = 12, 10
	a := NewAdaptiveListThreshold[int](threshold)
	h := NewHashArrayList[int]()
	r := rand.New(rand.NewSource(7))
	kinds := map[string]int{}
	step := func(phase string, grow bool) {
		v := r.Intn(domain)
		op := r.Intn(5)
		if h.Len() == 0 {
			op = 0
		}
		switch op {
		case 0:
			kinds["Add"]++
			a.Add(v)
			h.Add(v)
		case 1:
			kinds["Insert"]++
			i := r.Intn(h.Len() + 1)
			a.Insert(i, v)
			h.Insert(i, v)
		case 2:
			kinds["Set"]++
			i := r.Intn(h.Len())
			if x, y := a.Set(i, v), h.Set(i, v); x != y {
				t.Fatalf("%s: Set(%d, %d) returned %d and %d", phase, i, v, x, y)
			}
		case 3:
			if grow {
				a.Add(v)
				h.Add(v)
				break
			}
			kinds["RemoveAt"]++
			i := r.Intn(h.Len())
			if x, y := a.RemoveAt(i), h.RemoveAt(i); x != y {
				t.Fatalf("%s: RemoveAt(%d) returned %d and %d", phase, i, x, y)
			}
		case 4:
			kinds["Remove"]++
			if x, y := a.Remove(v), h.Remove(v); x != y {
				t.Fatalf("%s: Remove(%d) returned %v and %v", phase, v, x, y)
			}
		}
		if a.Len() != h.Len() {
			t.Fatalf("%s: Len %d and %d", phase, a.Len(), h.Len())
		}
		for i := 0; i < h.Len(); i++ {
			if a.Get(i) != h.Get(i) {
				t.Fatalf("%s: Get(%d) = %d and %d", phase, i, a.Get(i), h.Get(i))
			}
		}
		for v := -1; v <= domain; v++ {
			if a.IndexOf(v) != h.IndexOf(v) || a.Contains(v) != h.Contains(v) {
				t.Fatalf("%s: IndexOf(%d) = %d and %d, Contains %v and %v",
					phase, v, a.IndexOf(v), h.IndexOf(v), a.Contains(v), h.Contains(v))
			}
		}
		checkBag(t, &a.HashArrayList)
		checkBag(t, h)
	}

	for h.Len() <= threshold/2 {
		step("below the threshold", true)
	}
	if a.Transitioned() {
		t.Fatalf("transitioned at %d elements, threshold %d", a.Len(), threshold)
	}
	for h.Len() <= 3*threshold {
		step("growing across the threshold", true)
	}
	if !a.Transitioned() {
		t.Fatal("no transition")
	}
	for h.Len() > threshold/2 {
		step("shrinking below the threshold", false)
	}
	for i := 0; i < 400; i++ {
		step("mixed", i%2 == 0)
	}
	for _, k := range []string{"Add", "Insert", "Set", "RemoveAt", "Remove"} {
		if kinds[k] == 0 {
			t.Errorf("the script never ran %s", k)
		}
	}
}

// TestHashArrayListNaNLeavesNoBagEntries stores and removes NaN through
// every mutator on both list forms. NaN never equals itself, so a bag entry
// for it could never be found or deleted: the bag must leave it out, and a
// list emptied of NaNs must hold an empty bag.
func TestHashArrayListNaNLeavesNoBagEntries(t *testing.T) {
	nan := math.NaN()
	h := NewHashArrayList[float64]()
	a := NewAdaptiveListThreshold[float64](10)
	for _, tc := range []struct {
		name string
		l    List[float64]
		h    *HashArrayList[float64]
		base int // footprint beyond the HashArrayList's
	}{
		{"hasharray", h, h, 0},
		{"adaptive", a, &a.HashArrayList, structBase},
	} {
		l, h := tc.l, tc.h
		// A list that never held a NaN: same capacity, same footprint.
		ref := NewHashArrayList[float64]()
		for i := 0; i < 1000; i++ {
			l.Add(nan)
			ref.Add(float64(i))
		}
		l.Insert(500, nan)
		ref.Insert(500, -1)
		l.Set(0, 1)
		l.Set(0, nan)
		l.Set(1, 2)
		if l.Contains(nan) || l.IndexOf(nan) != -1 || l.Remove(nan) {
			t.Fatalf("%s: NaN was found (Contains, IndexOf or Remove)", tc.name)
		}
		if !l.Contains(2) || l.IndexOf(2) != 1 {
			t.Fatalf("%s: 2 not found at index 1", tc.name)
		}
		if len(h.bag) != 1 {
			t.Fatalf("%s: bag holds %d entries for the list's one non-NaN element", tc.name, len(h.bag))
		}
		checkBag(t, h)
		for l.Len() > 0 {
			l.RemoveAt(l.Len() - 1)
			ref.RemoveAt(ref.Len() - 1)
		}
		if len(h.bag) != 0 {
			t.Fatalf("%s: empty list keeps %d bag entries", tc.name, len(h.bag))
		}
		if got, want := l.(Sizer).FootprintBytes(), tc.base+ref.FootprintBytes(); got != want {
			t.Fatalf("%s: empty list's footprint = %d, want %d", tc.name, got, want)
		}
	}
}

// TestHashArrayListUncomparablePanics pins where an uncomparable interface
// value panics now that the bag tests v == v before counting it: the hash
// form panics at the Add, Insert or Set that stores it, as it panicked
// hashing it; an AdaptiveList stores it silently below its threshold, as an
// ArrayList does, and panics at the Add that crosses the threshold.
func TestHashArrayListUncomparablePanics(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	bad := []int{1}
	for name, op := range map[string]func(*HashArrayList[any]){
		"Add":    func(l *HashArrayList[any]) { l.Add(bad) },
		"Insert": func(l *HashArrayList[any]) { l.Insert(1, bad) },
		"Set":    func(l *HashArrayList[any]) { l.Set(0, bad) },
	} {
		l := NewHashArrayList[any]()
		l.Add(1)
		l.Add(2)
		if !panics(func() { op(l) }) {
			t.Errorf("HashArrayList.%s of a []int did not panic", name)
		}
	}

	a := NewAdaptiveListThreshold[any](2)
	if panics(func() { a.Add(bad); a.Add(1) }) {
		t.Fatal("AdaptiveList panicked storing a []int below its threshold")
	}
	if a.IndexOf(2) != -1 || a.Contains(3) {
		t.Fatal("AdaptiveList found an absent value")
	}
	if !panics(func() { a.Add(2) }) {
		t.Fatal("the Add crossing the threshold did not panic on the stored []int")
	}
	if a.Transitioned() || a.Len() != 3 {
		t.Fatalf("after the panic: Transitioned %v, Len %d; want false, 3", a.Transitioned(), a.Len())
	}
}

// TestAdaptiveListFootprint pins FootprintBytes at the sizes around the
// transition, after shrinking and after Clear: one object or two, the
// estimate charges what the two-object list charged.
func TestAdaptiveListFootprint(t *testing.T) {
	l := NewAdaptiveList[int]()
	got := []int{l.FootprintBytes()}
	for _, n := range []int{1, 80, 81, 200} {
		for l.Len() < n {
			l.Add(l.Len())
		}
		got = append(got, l.FootprintBytes())
	}
	for l.Len() > 40 {
		l.RemoveAt(0)
	}
	got = append(got, l.FootprintBytes())
	l.Clear()
	got = append(got, l.FootprintBytes())
	want := []int{56, 64, 1080, 3526, 8120, 3320, 56}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("footprints at n = 0, 1, 80, 81, 200, shrunk to 40, cleared = %v, want %v", got, want)
	}
}
