package collections

import (
	"cmp"
	"sort"
)

// SortedArraySet keeps its elements in a sorted flat slice: binary-searched
// O(log n) membership with the footprint of an ArraySet, paid for by O(n)
// insertion (shift) — the ordered cousin of the array-backed variants and
// the memory-minimal way to get fast lookups on mostly-static data.
//
// Like ArraySet, it keeps its own slice instead of wrapping its map twin
// (SortedArrayMap[T, struct{}]), whose value inserts into a []struct{} would
// each go through runtime.growslice.
type SortedArraySet[T cmp.Ordered] struct {
	elems []T
}

// NewSortedArraySet returns an empty SortedArraySet.
func NewSortedArraySet[T cmp.Ordered]() *SortedArraySet[T] { return &SortedArraySet[T]{} }

// NewSortedArraySetCap returns an empty SortedArraySet with capacity for
// capHint elements.
func NewSortedArraySetCap[T cmp.Ordered](capHint int) *SortedArraySet[T] {
	if capHint <= 0 {
		return &SortedArraySet[T]{}
	}
	return &SortedArraySet[T]{elems: make([]T, 0, capHint)}
}

// search returns the insertion index of v and whether it is present.
func (s *SortedArraySet[T]) search(v T) (int, bool) {
	i := sort.Search(len(s.elems), func(i int) bool { return s.elems[i] >= v })
	return i, i < len(s.elems) && s.elems[i] == v
}

// Add inserts v, reporting whether the set changed.
func (s *SortedArraySet[T]) Add(v T) bool {
	i, found := s.search(v)
	if found {
		return false
	}
	var zero T
	s.elems = append(s.elems, zero)
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = v
	return true
}

// Remove deletes v, reporting whether the set changed.
func (s *SortedArraySet[T]) Remove(v T) bool {
	i, found := s.search(v)
	if !found {
		return false
	}
	copy(s.elems[i:], s.elems[i+1:])
	var zero T
	s.elems[len(s.elems)-1] = zero
	s.elems = s.elems[:len(s.elems)-1]
	return true
}

// Contains reports whether v is in the set (binary search).
func (s *SortedArraySet[T]) Contains(v T) bool {
	_, found := s.search(v)
	return found
}

// Len returns the number of elements.
func (s *SortedArraySet[T]) Len() int { return len(s.elems) }

// Clear removes all elements, retaining capacity.
func (s *SortedArraySet[T]) Clear() {
	var zero T
	for i := range s.elems {
		s.elems[i] = zero
	}
	s.elems = s.elems[:0]
}

// ForEach calls fn on each element in ascending order until fn returns
// false.
func (s *SortedArraySet[T]) ForEach(fn func(T) bool) {
	for _, v := range s.elems {
		if !fn(v) {
			return
		}
	}
}

// Min returns the smallest element, if any.
func (s *SortedArraySet[T]) Min() (T, bool) {
	if len(s.elems) == 0 {
		var zero T
		return zero, false
	}
	return s.elems[0], true
}

// Max returns the largest element, if any.
func (s *SortedArraySet[T]) Max() (T, bool) {
	if len(s.elems) == 0 {
		var zero T
		return zero, false
	}
	return s.elems[len(s.elems)-1], true
}

// Range calls fn on each element in [from, to] ascending until fn returns
// false.
func (s *SortedArraySet[T]) Range(from, to T, fn func(T) bool) {
	i, _ := s.search(from)
	for ; i < len(s.elems) && s.elems[i] <= to; i++ {
		if !fn(s.elems[i]) {
			return
		}
	}
}

// FootprintBytes estimates the backing array.
func (s *SortedArraySet[T]) FootprintBytes() int {
	var zero T
	return structBase + sliceHeader + cap(s.elems)*sizeOf(zero)
}

// SortedArrayMap keeps entries in key-sorted parallel slices: O(log n)
// lookups at array-map footprint, O(n) insertion.
type SortedArrayMap[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
}

// NewSortedArrayMap returns an empty SortedArrayMap.
func NewSortedArrayMap[K cmp.Ordered, V any]() *SortedArrayMap[K, V] {
	return &SortedArrayMap[K, V]{}
}

// NewSortedArrayMapCap returns an empty SortedArrayMap with capacity for
// capHint entries.
func NewSortedArrayMapCap[K cmp.Ordered, V any](capHint int) *SortedArrayMap[K, V] {
	if capHint <= 0 {
		return &SortedArrayMap[K, V]{}
	}
	return &SortedArrayMap[K, V]{
		keys: make([]K, 0, capHint),
		vals: make([]V, 0, capHint),
	}
}

func (m *SortedArrayMap[K, V]) search(k K) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= k })
	return i, i < len(m.keys) && m.keys[i] == k
}

// Put associates k with v, returning the previous value if present.
func (m *SortedArrayMap[K, V]) Put(k K, v V) (V, bool) {
	i, found := m.search(k)
	if found {
		old := m.vals[i]
		m.vals[i] = v
		return old, true
	}
	var zk K
	var zv V
	m.keys = append(m.keys, zk)
	m.vals = append(m.vals, zv)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.keys[i] = k
	m.vals[i] = v
	return zv, false
}

// Get returns the value for k and whether it was present (binary search).
func (m *SortedArrayMap[K, V]) Get(k K) (V, bool) {
	if i, found := m.search(k); found {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Remove deletes the entry for k.
func (m *SortedArrayMap[K, V]) Remove(k K) (V, bool) {
	i, found := m.search(k)
	var zero V
	if !found {
		return zero, false
	}
	old := m.vals[i]
	last := len(m.keys) - 1
	copy(m.keys[i:], m.keys[i+1:])
	copy(m.vals[i:], m.vals[i+1:])
	var zk K
	m.keys[last] = zk
	m.vals[last] = zero
	m.keys = m.keys[:last]
	m.vals = m.vals[:last]
	return old, true
}

// ContainsKey reports whether k has an entry.
func (m *SortedArrayMap[K, V]) ContainsKey(k K) bool {
	_, found := m.search(k)
	return found
}

// Len returns the number of entries.
func (m *SortedArrayMap[K, V]) Len() int { return len(m.keys) }

// Clear removes all entries, retaining capacity.
func (m *SortedArrayMap[K, V]) Clear() {
	var zk K
	var zv V
	for i := range m.keys {
		m.keys[i] = zk
		m.vals[i] = zv
	}
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
}

// ForEach calls fn on each entry in ascending key order until fn returns
// false.
func (m *SortedArrayMap[K, V]) ForEach(fn func(K, V) bool) {
	for i, k := range m.keys {
		if !fn(k, m.vals[i]) {
			return
		}
	}
}

// MinKey returns the smallest key, if any.
func (m *SortedArrayMap[K, V]) MinKey() (K, bool) {
	if len(m.keys) == 0 {
		var zero K
		return zero, false
	}
	return m.keys[0], true
}

// MaxKey returns the largest key, if any.
func (m *SortedArrayMap[K, V]) MaxKey() (K, bool) {
	if len(m.keys) == 0 {
		var zero K
		return zero, false
	}
	return m.keys[len(m.keys)-1], true
}

// Range calls fn on each entry with key in [from, to] ascending until fn
// returns false.
func (m *SortedArrayMap[K, V]) Range(from, to K, fn func(K, V) bool) {
	i, _ := m.search(from)
	for ; i < len(m.keys) && m.keys[i] <= to; i++ {
		if !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// FootprintBytes estimates the two backing arrays.
func (m *SortedArrayMap[K, V]) FootprintBytes() int {
	var zk K
	var zv V
	return structBase + 2*sliceHeader + cap(m.keys)*sizeOf(zk) + cap(m.vals)*sizeOf(zv)
}
