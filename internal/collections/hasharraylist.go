package collections

// HashArrayList is the paper's "Switch" list variant: an ArrayList augmented
// with a hash multiset of its elements so that Contains runs in O(1) at the
// cost of roughly doubling the memory footprint and of maintaining the bag on
// every mutation. IndexOf (a positional query) is still linear, and — as the
// paper notes in the Figure 6 discussion — element removal pays for updating
// both structures.
type HashArrayList[T comparable] struct {
	elems []T
	bag   map[T]int32
}

// NewHashArrayList returns an empty HashArrayList.
func NewHashArrayList[T comparable]() *HashArrayList[T] {
	return &HashArrayList[T]{bag: make(map[T]int32)}
}

// NewHashArrayListFrom builds a HashArrayList from an existing slice,
// adopting (not copying) it. It is used by AdaptiveList when transitioning.
func NewHashArrayListFrom[T comparable](elems []T) *HashArrayList[T] {
	l := &HashArrayList[T]{elems: elems, bag: make(map[T]int32, len(elems))}
	for _, e := range elems {
		l.bag[e]++
	}
	return l
}

func (l *HashArrayList[T]) bagRemove(v T) {
	if c := l.bag[v]; c <= 1 {
		delete(l.bag, v)
	} else {
		l.bag[v] = c - 1
	}
}

// Add appends v to the end of the list.
func (l *HashArrayList[T]) Add(v T) {
	l.elems = append(l.elems, v)
	l.bag[v]++
}

// Insert places v at index i, shifting subsequent elements right.
func (l *HashArrayList[T]) Insert(i int, v T) {
	if i < 0 || i > len(l.elems) {
		panic("collections: HashArrayList.Insert index out of range")
	}
	var zero T
	l.elems = append(l.elems, zero)
	copy(l.elems[i+1:], l.elems[i:])
	l.elems[i] = v
	l.bag[v]++
}

// Get returns the element at index i.
func (l *HashArrayList[T]) Get(i int) T { return l.elems[i] }

// Set replaces the element at index i, returning the previous value.
func (l *HashArrayList[T]) Set(i int, v T) T {
	old := l.elems[i]
	l.elems[i] = v
	l.bagRemove(old)
	l.bag[v]++
	return old
}

// RemoveAt removes and returns the element at index i.
func (l *HashArrayList[T]) RemoveAt(i int) T {
	old := l.elems[i]
	copy(l.elems[i:], l.elems[i+1:])
	var zero T
	l.elems[len(l.elems)-1] = zero
	l.elems = l.elems[:len(l.elems)-1]
	l.bagRemove(old)
	return old
}

// Remove deletes the first occurrence of v. The hash bag answers the
// membership question first, but a present element still requires the linear
// scan to locate its position — the double cost the paper calls out.
func (l *HashArrayList[T]) Remove(v T) bool {
	i := l.IndexOf(v)
	if i < 0 {
		return false
	}
	l.RemoveAt(i)
	return true
}

// Contains reports whether v occurs in the list via the hash bag (O(1)).
func (l *HashArrayList[T]) Contains(v T) bool {
	_, ok := l.bag[v]
	return ok
}

// IndexOf returns the index of the first occurrence of v, or -1. The bag
// short-circuits the absent case; the present case is a linear scan.
func (l *HashArrayList[T]) IndexOf(v T) int {
	if _, ok := l.bag[v]; !ok {
		return -1
	}
	return indexOf(l.elems, v)
}

// Len returns the number of elements.
func (l *HashArrayList[T]) Len() int { return len(l.elems) }

// Clear removes all elements.
func (l *HashArrayList[T]) Clear() {
	var zero T
	for i := range l.elems {
		l.elems[i] = zero
	}
	l.elems = l.elems[:0]
	clear(l.bag)
}

// ForEach calls fn on each element in order until fn returns false.
func (l *HashArrayList[T]) ForEach(fn func(T) bool) {
	for _, e := range l.elems {
		if !fn(e) {
			return
		}
	}
}

// FootprintBytes estimates array plus hash-bag retained heap. The bag is a
// native Go map; we charge the usual ~1.5 slots per entry of bucket storage.
func (l *HashArrayList[T]) FootprintBytes() int {
	var zero T
	elem := sizeOf(zero)
	array := sliceHeader + cap(l.elems)*elem
	bagEntry := elem + 4 + wordBytes // key + count + bucket overhead share
	bag := structBase + len(l.bag)*bagEntry*3/2
	return structBase + array + bag
}
