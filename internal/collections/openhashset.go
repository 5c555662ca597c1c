package collections

// OpenHashSet is an open-addressing (linear probing, tombstone deletion)
// hash set — the analogue of the Koloboke / Eclipse / fastutil open-hash
// sets. As the JDK's HashSet is a HashMap without values, it is an
// OpenHashMap[T, struct{}], held by value so that a set allocates no more
// than its table. See OpenHashPreset for the three memory/speed
// configurations.
type OpenHashSet[T comparable] struct {
	m OpenHashMap[T, struct{}]
}

// NewOpenHashSet returns an empty set with the balanced preset.
func NewOpenHashSet[T comparable]() *OpenHashSet[T] {
	return NewOpenHashSetPreset[T](OpenBalanced, 0)
}

// NewOpenHashSetPreset returns an empty set with the given preset, pre-sized
// for capHint elements.
func NewOpenHashSetPreset[T comparable](p OpenHashPreset, capHint int) *OpenHashSet[T] {
	s := new(OpenHashSet[T])
	s.m.init(p, capHint)
	return s
}

// Preset returns the preset this set was built with.
func (s *OpenHashSet[T]) Preset() OpenHashPreset { return s.m.Preset() }

// Add inserts v, reporting whether the set changed.
func (s *OpenHashSet[T]) Add(v T) bool {
	_, had := s.m.Put(v, struct{}{})
	return !had
}

// Remove deletes v, leaving a tombstone.
func (s *OpenHashSet[T]) Remove(v T) bool {
	_, had := s.m.Remove(v)
	return had
}

// Contains reports whether v is in the set.
func (s *OpenHashSet[T]) Contains(v T) bool { return s.m.ContainsKey(v) }

// Len returns the number of elements.
func (s *OpenHashSet[T]) Len() int { return s.m.Len() }

// Clear removes all elements, retaining the table.
func (s *OpenHashSet[T]) Clear() { s.m.Clear() }

// ForEach calls fn on each element in slot order until fn returns false.
func (s *OpenHashSet[T]) ForEach(fn func(T) bool) {
	s.m.ForEach(func(v T, _ struct{}) bool { return fn(v) })
}

// FootprintBytes estimates the flat element and state arrays.
func (s *OpenHashSet[T]) FootprintBytes() int {
	var zero T
	c := len(s.m.keys)
	return structBase + 2*sliceHeader + c*(sizeOf(zero)+1)
}
