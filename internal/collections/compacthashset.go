package collections

// CompactHashSet is the dense hash set counterpart of CompactHashMap:
// packed element storage indexed by an open-addressed int32 table. Empty
// slots cost 4 bytes rather than an element slot, giving the smallest
// footprint of the indexed sets at the price of an extra indirection.
//
// Unlike OpenHashSet it keeps its own table instead of wrapping its map
// twin: CompactHashMap appends every value to a dense []V, and each append
// to a []struct{} goes through runtime.growslice (3-4 ns). Built on
// CompactHashMap[T, struct{}], the set populated 500 elements 6-10% slower.
type CompactHashSet[T comparable] struct {
	h     hasher[T]
	index []int32
	elems []T
	used  int
}

// NewCompactHashSet returns an empty CompactHashSet.
func NewCompactHashSet[T comparable]() *CompactHashSet[T] {
	return NewCompactHashSetCap[T](0)
}

// NewCompactHashSetCap returns an empty CompactHashSet pre-sized for capHint
// elements.
func NewCompactHashSetCap[T comparable](capHint int) *CompactHashSet[T] {
	c := openHashMinCap
	if capHint > 0 {
		c = nextPow2(capHint*4/3 + 1)
		if c < openHashMinCap {
			c = openHashMinCap
		}
	}
	s := &CompactHashSet[T]{h: newHasher[T](), index: make([]int32, c)}
	for i := range s.index {
		s.index[i] = compactEmpty
	}
	if capHint > 0 {
		s.elems = make([]T, 0, capHint)
	}
	return s
}

func (s *CompactHashSet[T]) slotOf(v T, hash uint64) (found, insert int) {
	mask := uint64(len(s.index) - 1)
	i := hash & mask
	insert = -1
	for {
		switch d := s.index[i]; d {
		case compactEmpty:
			if insert < 0 {
				insert = int(i)
			}
			return -1, insert
		case compactTombstone:
			if insert < 0 {
				insert = int(i)
			}
		default:
			if s.elems[d] == v {
				return int(i), int(i)
			}
		}
		i = (i + 1) & mask
	}
}

func (s *CompactHashSet[T]) rehash(newCap int) {
	s.index = make([]int32, newCap)
	for i := range s.index {
		s.index[i] = compactEmpty
	}
	s.used = len(s.elems)
	mask := uint64(newCap - 1)
	for d, v := range s.elems {
		i := s.h.hash(v) & mask
		for s.index[i] != compactEmpty {
			i = (i + 1) & mask
		}
		s.index[i] = int32(d)
	}
}

// Add inserts v, reporting whether the set changed.
func (s *CompactHashSet[T]) Add(v T) bool {
	hash := s.h.hash(v)
	found, insert := s.slotOf(v, hash)
	if found >= 0 {
		return false
	}
	if (s.used+1)*4 > len(s.index)*3 {
		newCap := len(s.index)
		if (len(s.elems)+1)*4 > newCap*3 {
			newCap *= 2
		}
		s.rehash(newCap)
		_, insert = s.slotOf(v, hash)
	}
	if s.index[insert] == compactEmpty {
		s.used++
	}
	s.index[insert] = int32(len(s.elems))
	s.elems = append(s.elems, v)
	return true
}

// Remove deletes v, keeping the dense array packed via swap-remove.
func (s *CompactHashSet[T]) Remove(v T) bool {
	found, _ := s.slotOf(v, s.h.hash(v))
	if found < 0 {
		return false
	}
	d := s.index[found]
	s.index[found] = compactTombstone
	last := int32(len(s.elems) - 1)
	if d != last {
		moved := s.elems[last]
		slot, _ := s.slotOf(moved, s.h.hash(moved))
		s.elems[d] = moved
		s.index[slot] = d
	}
	var zero T
	s.elems[last] = zero
	s.elems = s.elems[:last]
	return true
}

// Contains reports whether v is in the set.
func (s *CompactHashSet[T]) Contains(v T) bool {
	found, _ := s.slotOf(v, s.h.hash(v))
	return found >= 0
}

// Len returns the number of elements.
func (s *CompactHashSet[T]) Len() int { return len(s.elems) }

// Clear removes all elements, retaining the index table.
func (s *CompactHashSet[T]) Clear() {
	for i := range s.index {
		s.index[i] = compactEmpty
	}
	var zero T
	for i := range s.elems {
		s.elems[i] = zero
	}
	s.elems = s.elems[:0]
	s.used = 0
}

// ForEach calls fn on each element in dense order until fn returns false.
func (s *CompactHashSet[T]) ForEach(fn func(T) bool) {
	for _, v := range s.elems {
		if !fn(v) {
			return
		}
	}
}

// FootprintBytes estimates the int32 index table plus the packed elements.
func (s *CompactHashSet[T]) FootprintBytes() int {
	var zero T
	return structBase + 2*sliceHeader + len(s.index)*4 + cap(s.elems)*sizeOf(zero)
}
