package collections

// ArrayList is the array-backed list, the analogue of JDK ArrayList: a
// contiguous slice with amortized O(1) append, O(1) positional access and
// O(n) search and middle insertion/removal.
type ArrayList[T comparable] struct {
	elems []T
}

// NewArrayList returns an empty ArrayList.
func NewArrayList[T comparable]() *ArrayList[T] {
	return &ArrayList[T]{}
}

// NewArrayListCap returns an empty ArrayList with capacity for capHint
// elements. A non-positive hint is ignored.
func NewArrayListCap[T comparable](capHint int) *ArrayList[T] {
	if capHint <= 0 {
		return &ArrayList[T]{}
	}
	return &ArrayList[T]{elems: make([]T, 0, capHint)}
}

// Add appends v to the end of the list.
func (l *ArrayList[T]) Add(v T) { l.elems = append(l.elems, v) }

// Insert places v at index i, shifting subsequent elements right.
func (l *ArrayList[T]) Insert(i int, v T) {
	if i < 0 || i > len(l.elems) {
		panic("collections: ArrayList.Insert index out of range")
	}
	var zero T
	l.elems = append(l.elems, zero)
	copy(l.elems[i+1:], l.elems[i:])
	l.elems[i] = v
}

// Get returns the element at index i.
func (l *ArrayList[T]) Get(i int) T { return l.elems[i] }

// Set replaces the element at index i, returning the previous value.
func (l *ArrayList[T]) Set(i int, v T) T {
	old := l.elems[i]
	l.elems[i] = v
	return old
}

// RemoveAt removes and returns the element at index i.
func (l *ArrayList[T]) RemoveAt(i int) T {
	old := l.elems[i]
	copy(l.elems[i:], l.elems[i+1:])
	var zero T
	l.elems[len(l.elems)-1] = zero
	l.elems = l.elems[:len(l.elems)-1]
	return old
}

// Remove deletes the first occurrence of v.
func (l *ArrayList[T]) Remove(v T) bool {
	i := l.IndexOf(v)
	if i < 0 {
		return false
	}
	l.RemoveAt(i)
	return true
}

// Contains reports whether v occurs in the list (linear scan).
func (l *ArrayList[T]) Contains(v T) bool { return l.IndexOf(v) >= 0 }

// IndexOf returns the index of the first occurrence of v, or -1.
func (l *ArrayList[T]) IndexOf(v T) int { return indexOf(l.elems, v) }

// Len returns the number of elements.
func (l *ArrayList[T]) Len() int { return len(l.elems) }

// Clear removes all elements, retaining capacity.
func (l *ArrayList[T]) Clear() {
	var zero T
	for i := range l.elems {
		l.elems[i] = zero
	}
	l.elems = l.elems[:0]
}

// ForEach calls fn on each element in order until fn returns false.
func (l *ArrayList[T]) ForEach(fn func(T) bool) {
	for _, e := range l.elems {
		if !fn(e) {
			return
		}
	}
}

// FootprintBytes estimates the retained heap of the backing array.
func (l *ArrayList[T]) FootprintBytes() int {
	var zero T
	return structBase + sliceHeader + cap(l.elems)*sizeOf(zero)
}
