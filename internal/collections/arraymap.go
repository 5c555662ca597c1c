package collections

// ArrayMap is a flat parallel-slice map with linear-scan key search — the
// analogue of the ArrayMap variants from Google HTTP Client and Stanford
// NLP. It is the most memory-efficient map variant (no index structure at
// all) with O(n) lookups that nonetheless win below a few tens of entries.
type ArrayMap[K comparable, V any] struct {
	keys []K
	vals []V
}

// NewArrayMap returns an empty ArrayMap.
func NewArrayMap[K comparable, V any]() *ArrayMap[K, V] { return &ArrayMap[K, V]{} }

// NewArrayMapCap returns an empty ArrayMap with capacity for capHint
// entries.
func NewArrayMapCap[K comparable, V any](capHint int) *ArrayMap[K, V] {
	if capHint <= 0 {
		return &ArrayMap[K, V]{}
	}
	return &ArrayMap[K, V]{
		keys: make([]K, 0, capHint),
		vals: make([]V, 0, capHint),
	}
}

// Put associates k with v, returning the previous value if present.
func (m *ArrayMap[K, V]) Put(k K, v V) (V, bool) {
	if i := indexOf(m.keys, k); i >= 0 {
		old := m.vals[i]
		m.vals[i] = v
		return old, true
	}
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
	var zero V
	return zero, false
}

// Get returns the value for k and whether it was present.
func (m *ArrayMap[K, V]) Get(k K) (V, bool) {
	if i := indexOf(m.keys, k); i >= 0 {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Remove deletes the entry for k, preserving insertion order.
func (m *ArrayMap[K, V]) Remove(k K) (V, bool) {
	i := indexOf(m.keys, k)
	var zero V
	if i < 0 {
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

// ContainsKey reports whether k has an entry (linear scan).
func (m *ArrayMap[K, V]) ContainsKey(k K) bool { return indexOf(m.keys, k) >= 0 }

// Len returns the number of entries.
func (m *ArrayMap[K, V]) Len() int { return len(m.keys) }

// Clear removes all entries, retaining capacity.
func (m *ArrayMap[K, V]) Clear() {
	var zk K
	var zv V
	for i := range m.keys {
		m.keys[i] = zk
		m.vals[i] = zv
	}
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
}

// ForEach calls fn on each entry in insertion order until fn returns false.
func (m *ArrayMap[K, V]) ForEach(fn func(K, V) bool) {
	for i, k := range m.keys {
		if !fn(k, m.vals[i]) {
			return
		}
	}
}

// Pairs exposes the backing slices for adaptive transitions; callers must
// not mutate them.
func (m *ArrayMap[K, V]) Pairs() ([]K, []V) { return m.keys, m.vals }

// FootprintBytes estimates the two backing arrays.
func (m *ArrayMap[K, V]) FootprintBytes() int {
	var zk K
	var zv V
	return structBase + 2*sliceHeader + cap(m.keys)*sizeOf(zk) + cap(m.vals)*sizeOf(zv)
}
