package collections

// HashArrayList is the paper's "Switch" list variant: an ArrayList augmented
// with a hash multiset of its elements so that Contains runs in O(1) at the
// cost of roughly doubling the memory footprint and of maintaining the bag on
// every mutation. IndexOf (a positional query) is still linear, and — as the
// paper notes in the Figure 6 discussion — element removal pays for updating
// both structures.
//
// A nil bag makes the list a plain array list: Contains and IndexOf scan,
// and the mutators skip the bag. AdaptiveList embeds a HashArrayList with a
// nil bag and builds the bag at its transition. The bag leaves NaN out: it
// never equals itself, so no lookup could find its entry and no removal
// could delete it.
type HashArrayList[T comparable] struct {
	elems []T
	bag   map[T]int32
}

// NewHashArrayList returns an empty HashArrayList.
func NewHashArrayList[T comparable]() *HashArrayList[T] {
	return &HashArrayList[T]{bag: make(map[T]int32)}
}

// NewHashArrayListFrom builds a HashArrayList from an existing slice,
// adopting (not copying) it, with the bag AdaptiveList builds at its
// transition.
func NewHashArrayListFrom[T comparable](elems []T) *HashArrayList[T] {
	l := &HashArrayList[T]{elems: elems}
	l.buildBag()
	return l
}

// buildBag counts the elements into a new bag sized for twice their number,
// so a list that keeps growing does not rehash it until it has doubled (the
// rule AdaptiveSet and AdaptiveMap apply to their hash forms).
func (l *HashArrayList[T]) buildBag() {
	bag := make(map[T]int32, 2*len(l.elems))
	for _, e := range l.elems {
		if e == e {
			bag[e]++
		}
	}
	l.bag = bag
}

func (l *HashArrayList[T]) bagAdd(v T) {
	if l.bag != nil && v == v {
		l.bag[v]++
	}
}

func (l *HashArrayList[T]) bagRemove(v T) {
	if l.bag == nil {
		return
	}
	if c := l.bag[v]; c <= 1 {
		delete(l.bag, v)
	} else {
		l.bag[v] = c - 1
	}
}

// Add appends v to the end of the list.
func (l *HashArrayList[T]) Add(v T) {
	l.elems = append(l.elems, v)
	l.bagAdd(v)
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
	l.bagAdd(v)
}

// Get returns the element at index i.
func (l *HashArrayList[T]) Get(i int) T { return l.elems[i] }

// Set replaces the element at index i, returning the previous value.
func (l *HashArrayList[T]) Set(i int, v T) T {
	old := l.elems[i]
	l.elems[i] = v
	l.bagRemove(old)
	l.bagAdd(v)
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

// Contains reports whether v occurs in the list via the hash bag (O(1)), or
// by a scan when there is no bag. This form, with the scan through IndexOf
// and a bare return of the named result, costs exactly the compiler's
// inlining budget, so the interface wrapper a program calls holds the bag
// lookup itself.
func (l *HashArrayList[T]) Contains(v T) (ok bool) {
	if l.bag == nil {
		return l.IndexOf(v) >= 0
	}
	_, ok = l.bag[v]
	return
}

// IndexOf returns the index of the first occurrence of v, or -1. The bag
// short-circuits the absent case; the present case is a linear scan.
func (l *HashArrayList[T]) IndexOf(v T) int {
	if l.bag != nil {
		if _, ok := l.bag[v]; !ok {
			return -1
		}
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
	n := structBase + sliceHeader + cap(l.elems)*elem
	if l.bag != nil {
		bagEntry := elem + 4 + wordBytes // key + count + bucket overhead share
		n += structBase + len(l.bag)*bagEntry*3/2
	}
	return n
}
