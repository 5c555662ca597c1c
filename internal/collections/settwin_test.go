package collections

import "testing"

// OpenHashSet is built on its map twin, an OpenHashMap[T, struct{}] held by
// value, and SyncSet and AdaptiveSet hold an OpenHashSet; CompactHashSet
// keeps its own table. These tests pin what the sets report and cost however
// they are built: the footprint (the dimension cmd/perfmodel fits for
// Rfootprint) and the allocations to build a set and to fill it.

// footprintScript fills a set of the given variant and reads its footprint
// at the points of the golden table: after 0, 1, 7, 100 and 900 additions,
// after removing every other element of the 900, after adding them back,
// and after Clear.
func footprintScript(id VariantID, capHint int) [8]int {
	newSet := builtinSetFactory[int](id)
	var got [8]int
	for col, n := range []int{0, 1, 7, 100, 900} {
		s := newSet(capHint)
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		got[col] = s.(Sizer).FootprintBytes()
	}
	s := newSet(capHint)
	for i := 0; i < 900; i++ {
		s.Add(i)
	}
	for i := 0; i < 900; i += 2 {
		s.Remove(i)
	}
	got[5] = s.(Sizer).FootprintBytes()
	for i := 0; i < 900; i += 2 {
		s.Add(i)
	}
	got[6] = s.(Sizer).FootprintBytes()
	s.Clear()
	got[7] = s.(Sizer).FootprintBytes()
	return got
}

func TestSetTwinFootprints(t *testing.T) {
	golden := []struct {
		id      VariantID
		capHint int
		want    [8]int // n=0, 1, 7, 100, 900, half removed, re-added, cleared
	}{
		{OpenHashSetFastID, 0, [8]int{136, 136, 208, 2368, 18496, 18496, 18496, 18496}},
		{OpenHashSetFastID, 100, [8]int{2368, 2368, 2368, 2368, 18496, 18496, 18496, 18496}},
		{OpenHashSetBalID, 0, [8]int{136, 136, 208, 2368, 18496, 18496, 18496, 18496}},
		{OpenHashSetBalID, 100, [8]int{2368, 2368, 2368, 2368, 18496, 18496, 18496, 18496}},
		{OpenHashSetCmpID, 0, [8]int{136, 136, 136, 1216, 9280, 9280, 9280, 9280}},
		{OpenHashSetCmpID, 100, [8]int{1216, 1216, 1216, 1216, 9280, 9280, 9280, 9280}},
		{CompactHashSetID, 0, [8]int{96, 104, 192, 2112, 18496, 18496, 18496, 18496}},
		{CompactHashSetID, 100, [8]int{1888, 1888, 1888, 1888, 18496, 18496, 18496, 18496}},
		{SyncSetID, 0, [8]int{184, 184, 256, 2416, 18544, 18544, 18544, 18544}},
		{SyncSetID, 100, [8]int{2416, 2416, 2416, 2416, 18544, 18544, 18544, 18544}},
		{AdaptiveSetID, 0, [8]int{56, 64, 120, 2384, 18512, 18512, 18512, 56}},
		{AdaptiveSetID, 100, [8]int{56, 64, 120, 2384, 18512, 18512, 18512, 56}},
	}
	for _, g := range golden {
		if got := footprintScript(g.id, g.capHint); got != g.want {
			t.Errorf("%s capHint %d: footprints %v, want %v", g.id, g.capHint, got, g.want)
		}
	}
}

var setTwinSink Set[int]

func TestSetTwinAllocs(t *testing.T) {
	for _, c := range []struct {
		id                  VariantID
		capHint             int
		construct, populate float64 // populate: construct plus 64 Adds
	}{
		{OpenHashSetFastID, 0, 3, 11},
		{OpenHashSetFastID, 100, 3, 3},
		{OpenHashSetBalID, 0, 3, 11},
		{OpenHashSetBalID, 100, 3, 3},
		{OpenHashSetCmpID, 0, 3, 11},
		{OpenHashSetCmpID, 100, 3, 3},
		{CompactHashSetID, 0, 2, 13},
		{CompactHashSetID, 100, 3, 3},
	} {
		newSet := builtinSetFactory[int](c.id)
		construct := testing.AllocsPerRun(100, func() { setTwinSink = newSet(c.capHint) })
		populate := testing.AllocsPerRun(100, func() {
			s := newSet(c.capHint)
			for i := 0; i < 64; i++ {
				s.Add(i)
			}
			setTwinSink = s
		})
		if construct != c.construct || populate != c.populate {
			t.Errorf("%s capHint %d: %v allocs to construct and %v to populate 64, want %v and %v",
				c.id, c.capHint, construct, populate, c.construct, c.populate)
		}
	}
}
