package collections

// ArraySet is a flat-slice set with linear-scan membership — the analogue of
// the ArraySet variants shipped by Google HTTP Client and Stanford NLP. It
// has by far the smallest footprint of any set variant and, below a few tens
// of elements, lookups competitive with (often faster than) the hash sets
// thanks to locality; above that its O(n) scan loses badly. This narrow
// best-case is exactly why the paper's adaptive variants start from it.
//
// It keeps its own slice instead of wrapping ArrayMap[T, struct{}]: each
// append to a []struct{} goes through runtime.growslice (3-4 ns), and an
// array set built on ArrayMap populated 14-44% slower at 4-16 elements.
type ArraySet[T comparable] struct {
	elems []T
}

// NewArraySet returns an empty ArraySet.
func NewArraySet[T comparable]() *ArraySet[T] { return &ArraySet[T]{} }

// NewArraySetCap returns an empty ArraySet with capacity for capHint
// elements.
func NewArraySetCap[T comparable](capHint int) *ArraySet[T] {
	if capHint <= 0 {
		return &ArraySet[T]{}
	}
	return &ArraySet[T]{elems: make([]T, 0, capHint)}
}

// Add inserts v, reporting whether the set changed.
func (s *ArraySet[T]) Add(v T) bool {
	if s.Contains(v) {
		return false
	}
	s.elems = append(s.elems, v)
	return true
}

// Remove deletes v, reporting whether the set changed. Order is preserved
// (matching the reference Java implementations, which shift).
func (s *ArraySet[T]) Remove(v T) bool {
	i := indexOf(s.elems, v)
	if i < 0 {
		return false
	}
	copy(s.elems[i:], s.elems[i+1:])
	var zero T
	s.elems[len(s.elems)-1] = zero
	s.elems = s.elems[:len(s.elems)-1]
	return true
}

// Contains reports whether v is in the set (linear scan).
func (s *ArraySet[T]) Contains(v T) bool { return indexOf(s.elems, v) >= 0 }

// Len returns the number of elements.
func (s *ArraySet[T]) Len() int { return len(s.elems) }

// Clear removes all elements, retaining capacity.
func (s *ArraySet[T]) Clear() {
	var zero T
	for i := range s.elems {
		s.elems[i] = zero
	}
	s.elems = s.elems[:0]
}

// ForEach calls fn on each element in insertion order until fn returns
// false.
func (s *ArraySet[T]) ForEach(fn func(T) bool) {
	for _, e := range s.elems {
		if !fn(e) {
			return
		}
	}
}

// Elems exposes the backing slice for adaptive transitions; callers must not
// mutate it.
func (s *ArraySet[T]) Elems() []T { return s.elems }

// FootprintBytes estimates the backing array.
func (s *ArraySet[T]) FootprintBytes() int {
	var zero T
	return structBase + sliceHeader + cap(s.elems)*sizeOf(zero)
}
