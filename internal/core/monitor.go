package core

import (
	"runtime"

	"repro/internal/collections"
)

// The monitor types wrap a collection instance and log its critical
// operations into a profile before forwarding to the real implementation —
// the "extra layer called monitor" of Section 4.3. Only the sampled window
// of instances pays this cost; instances beyond the window are handed out
// unwrapped.
//
// There is one monitor type per abstraction, monitoredList/Set/Map. Every
// counting method performs one atomic add on the instance's profile through
// the cached p pointer, with no per-operation selection of any kind. This
// matters because a locked x86 read-modify-write dispatches only once every
// older instruction has retired — any work ahead of it (a branch, a hash,
// even a handful of dependency-free ALU ops) is serialized into the
// operation's latency rather than hidden by out-of-order execution. Measured
// on the saturation benchmark, a single predicted branch before the
// increment costs ~2ns/op. Hashing each recorder onto its own counter line
// does not beat this form in the median at GOMAXPROCS=2 (EXPERIMENTS.md,
// "Monitoring overhead at saturation").
//
// Two details of the record path:
//
//   - Methods that write the profile after their last use of the monitor
//     (the size observation after a successful insert) end with
//     runtime.KeepAlive(m). Without it the monitor — whose collection by
//     the GC is the instance-death signal — could be reclaimed between the
//     inner operation and the final counter write, the analyzer could fold
//     the instance as finished, and the late write would land after the
//     fold read the counters: the count selection trusts would miss it.
//     Methods that merely count and then delegate need no pin: the
//     delegation itself keeps m alive past the counter write.
//   - The collections.Sizer assertion is resolved once at wrap time and
//     cached in the sizer field, instead of re-asserted on every
//     FootprintBytes call.

// monitoredList wraps a List and counts its critical operations into its
// profile.
type monitoredList[T comparable] struct {
	inner collections.List[T]
	sizer collections.Sizer // cached inner.(collections.Sizer); nil if unsupported
	p     *profile          // this instance's counters
}

func (m *monitoredList[T]) Add(v T) {
	m.p.adds.Add(1)
	m.inner.Add(v)
	m.p.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
}

func (m *monitoredList[T]) Insert(i int, v T) {
	m.p.adds.Add(1)
	if i < m.inner.Len() {
		m.p.middles.Add(1)
	}
	m.inner.Insert(i, v)
	m.p.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
}

func (m *monitoredList[T]) Get(i int) T { return m.inner.Get(i) }

func (m *monitoredList[T]) Set(i int, v T) T { return m.inner.Set(i, v) }

func (m *monitoredList[T]) RemoveAt(i int) T {
	m.p.middles.Add(1)
	return m.inner.RemoveAt(i)
}

func (m *monitoredList[T]) Remove(v T) bool {
	// A removal by value is a search plus a positional removal.
	m.p.contains.Add(1)
	m.p.middles.Add(1)
	return m.inner.Remove(v)
}

func (m *monitoredList[T]) Contains(v T) bool {
	m.p.contains.Add(1)
	return m.inner.Contains(v)
}

func (m *monitoredList[T]) IndexOf(v T) int {
	m.p.contains.Add(1)
	return m.inner.IndexOf(v)
}

func (m *monitoredList[T]) Len() int { return m.inner.Len() }

func (m *monitoredList[T]) Clear() { m.inner.Clear() }

func (m *monitoredList[T]) ForEach(fn func(T) bool) {
	m.p.iterates.Add(1)
	m.inner.ForEach(fn)
}

// FootprintBytes delegates to the wrapped variant so memory accounting sees
// through the monitor.
func (m *monitoredList[T]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}

// monitoredSet wraps a Set and counts its critical operations into its
// profile.
type monitoredSet[T comparable] struct {
	inner collections.Set[T]
	sizer collections.Sizer // cached inner.(collections.Sizer); nil if unsupported
	p     *profile          // this instance's counters
}

func (m *monitoredSet[T]) Add(v T) bool {
	m.p.adds.Add(1)
	changed := m.inner.Add(v)
	m.p.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
	return changed
}

func (m *monitoredSet[T]) Remove(v T) bool {
	m.p.middles.Add(1)
	return m.inner.Remove(v)
}

func (m *monitoredSet[T]) Contains(v T) bool {
	m.p.contains.Add(1)
	return m.inner.Contains(v)
}

func (m *monitoredSet[T]) Len() int { return m.inner.Len() }

func (m *monitoredSet[T]) Clear() { m.inner.Clear() }

func (m *monitoredSet[T]) ForEach(fn func(T) bool) {
	m.p.iterates.Add(1)
	m.inner.ForEach(fn)
}

func (m *monitoredSet[T]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}

// monitoredMap wraps a Map and counts its critical operations into its
// profile.
type monitoredMap[K comparable, V any] struct {
	inner collections.Map[K, V]
	sizer collections.Sizer // cached inner.(collections.Sizer); nil if unsupported
	p     *profile          // this instance's counters
}

func (m *monitoredMap[K, V]) Put(k K, v V) (V, bool) {
	m.p.adds.Add(1)
	old, present := m.inner.Put(k, v)
	m.p.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
	return old, present
}

func (m *monitoredMap[K, V]) Get(k K) (V, bool) {
	m.p.contains.Add(1)
	return m.inner.Get(k)
}

func (m *monitoredMap[K, V]) Remove(k K) (V, bool) {
	m.p.middles.Add(1)
	return m.inner.Remove(k)
}

func (m *monitoredMap[K, V]) ContainsKey(k K) bool {
	m.p.contains.Add(1)
	return m.inner.ContainsKey(k)
}

func (m *monitoredMap[K, V]) Len() int { return m.inner.Len() }

func (m *monitoredMap[K, V]) Clear() { m.inner.Clear() }

func (m *monitoredMap[K, V]) ForEach(fn func(K, V) bool) {
	m.p.iterates.Add(1)
	m.inner.ForEach(fn)
}

func (m *monitoredMap[K, V]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}
