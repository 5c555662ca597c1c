package collections

// OpenHashPreset captures the memory/speed tradeoff of an open-addressing
// hash table through its maximum load factor. The three exported presets
// mirror the third-party Java libraries the paper benchmarks: a half-full
// table probes the least but wastes the most slots (Koloboke's default), a
// nine-tenths-full table is the most memory-efficient but pays longer probe
// chains (fastutil's compact configurations), and three-quarters sits in
// between (Eclipse Collections).
type OpenHashPreset struct {
	// Name distinguishes the preset in variant IDs and reports.
	Name string
	// LoadNum/LoadDen is the maximum fraction of occupied slots before
	// the table doubles.
	LoadNum, LoadDen int
}

// The three open-addressing presets used throughout the evaluation.
var (
	OpenFast     = OpenHashPreset{Name: "fast", LoadNum: 1, LoadDen: 2}
	OpenBalanced = OpenHashPreset{Name: "balanced", LoadNum: 3, LoadDen: 4}
	OpenCompact  = OpenHashPreset{Name: "compact", LoadNum: 9, LoadDen: 10}
)

const (
	slotEmpty uint8 = iota
	slotFull
	slotDeleted
)

const openHashMinCap = 8

// OpenHashMap is an open-addressing (linear probing, tombstone deletion)
// hash map storing keys and values in flat parallel arrays — the analogue of
// the Koloboke / Eclipse / fastutil open-hash maps. Unlike the chained
// HashMap it performs no per-entry allocation, trading empty slots for
// locality.
type OpenHashMap[K comparable, V any] struct {
	h      hasher[K]
	keys   []K
	vals   []V
	state  []uint8
	size   int // live entries
	used   int // live + tombstones
	preset OpenHashPreset
}

// NewOpenHashMap returns an empty map with the balanced preset.
func NewOpenHashMap[K comparable, V any]() *OpenHashMap[K, V] {
	return NewOpenHashMapPreset[K, V](OpenBalanced, 0)
}

// NewOpenHashMapPreset returns an empty map with the given preset, pre-sized
// for capHint entries.
func NewOpenHashMapPreset[K comparable, V any](p OpenHashPreset, capHint int) *OpenHashMap[K, V] {
	m := new(OpenHashMap[K, V])
	m.init(p, capHint)
	return m
}

// init builds an empty table in place, so that OpenHashSet can hold its map
// by value without a second allocation.
func (m *OpenHashMap[K, V]) init(p OpenHashPreset, capHint int) {
	c := openHashMinCap
	if capHint > 0 {
		c = nextPow2(capHint*p.LoadDen/p.LoadNum + 1)
		if c < openHashMinCap {
			c = openHashMinCap
		}
	}
	*m = OpenHashMap[K, V]{
		h:      newHasher[K](),
		keys:   make([]K, c),
		vals:   make([]V, c),
		state:  make([]uint8, c),
		preset: p,
	}
}

// Preset returns the preset this map was built with.
func (m *OpenHashMap[K, V]) Preset() OpenHashPreset { return m.preset }

// slotOf returns the slot holding k, or -1 and the first insertable slot.
func (m *OpenHashMap[K, V]) slotOf(k K, hash uint64) (found, insert int) {
	mask := uint64(len(m.keys) - 1)
	i := hash & mask
	insert = -1
	for {
		switch m.state[i] {
		case slotEmpty:
			if insert < 0 {
				insert = int(i)
			}
			return -1, insert
		case slotDeleted:
			if insert < 0 {
				insert = int(i)
			}
		case slotFull:
			if m.keys[i] == k {
				return int(i), int(i)
			}
		}
		i = (i + 1) & mask
	}
}

func (m *OpenHashMap[K, V]) rehash(newCap int) {
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]K, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.used = m.size
	mask := uint64(newCap - 1)
	for i, st := range oldState {
		if st != slotFull {
			continue
		}
		j := m.h.hash(oldKeys[i]) & mask
		for m.state[j] == slotFull {
			j = (j + 1) & mask
		}
		m.keys[j] = oldKeys[i]
		m.vals[j] = oldVals[i]
		m.state[j] = slotFull
	}
}

func (m *OpenHashMap[K, V]) maybeGrow() {
	if (m.used+1)*m.preset.LoadDen <= len(m.keys)*m.preset.LoadNum {
		return
	}
	newCap := len(m.keys)
	if (m.size+1)*m.preset.LoadDen > newCap*m.preset.LoadNum {
		newCap *= 2 // genuinely full: double
	}
	// Otherwise same capacity: the rehash just clears tombstones.
	m.rehash(newCap)
}

// Put associates k with v, returning the previous value if present.
func (m *OpenHashMap[K, V]) Put(k K, v V) (V, bool) {
	hash := m.h.hash(k)
	found, insert := m.slotOf(k, hash)
	if found >= 0 {
		old := m.vals[found]
		m.vals[found] = v
		return old, true
	}
	var zero V
	if (m.used+1)*m.preset.LoadDen > len(m.keys)*m.preset.LoadNum {
		m.maybeGrow()
		_, insert = m.slotOf(k, hash)
	}
	if m.state[insert] == slotEmpty {
		m.used++
	}
	m.keys[insert] = k
	m.vals[insert] = v
	m.state[insert] = slotFull
	m.size++
	return zero, false
}

// Get returns the value for k and whether it was present.
func (m *OpenHashMap[K, V]) Get(k K) (V, bool) {
	if found, _ := m.slotOf(k, m.h.hash(k)); found >= 0 {
		return m.vals[found], true
	}
	var zero V
	return zero, false
}

// Remove deletes the entry for k, leaving a tombstone.
func (m *OpenHashMap[K, V]) Remove(k K) (V, bool) {
	found, _ := m.slotOf(k, m.h.hash(k))
	var zero V
	if found < 0 {
		return zero, false
	}
	old := m.vals[found]
	var zk K
	m.keys[found] = zk
	m.vals[found] = zero
	m.state[found] = slotDeleted
	m.size--
	return old, true
}

// ContainsKey reports whether k has an entry.
func (m *OpenHashMap[K, V]) ContainsKey(k K) bool {
	found, _ := m.slotOf(k, m.h.hash(k))
	return found >= 0
}

// Len returns the number of entries.
func (m *OpenHashMap[K, V]) Len() int { return m.size }

// Clear removes all entries, retaining the table.
func (m *OpenHashMap[K, V]) Clear() {
	clear(m.keys)
	clear(m.vals)
	clear(m.state)
	m.size = 0
	m.used = 0
}

// ForEach calls fn on each entry in slot order until fn returns false.
func (m *OpenHashMap[K, V]) ForEach(fn func(K, V) bool) {
	for i, st := range m.state {
		if st == slotFull && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// FootprintBytes estimates the flat key, value and state arrays.
func (m *OpenHashMap[K, V]) FootprintBytes() int {
	var zk K
	var zv V
	c := len(m.keys)
	return structBase + 3*sliceHeader + c*(sizeOf(zk)+sizeOf(zv)+1)
}
