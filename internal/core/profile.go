package core

import (
	"sync"
	"sync/atomic"
)

// cacheLineBytes is the coherence granularity a profile is padded to.
const cacheLineBytes = 64

// profile accumulates the workload of one monitored collection instance —
// the record path of the whole framework: every critical operation on a
// monitored collection lands here as one atomic add (monitor.go). The
// monitored collection may live on any goroutine while the analyzer reads
// concurrently; every field access is atomic. The five counters occupy 40
// bytes; the pad grows the struct to one full cache line so a profile never
// shares a line with another object's hot fields.
type profile struct {
	adds     atomic.Int64 // Add/Insert/Put calls
	contains atomic.Int64 // Contains/IndexOf/Get/ContainsKey calls
	iterates atomic.Int64 // full traversals (ForEach)
	middles  atomic.Int64 // positional/middle mutations and removals
	maxSize  atomic.Int64 // high-water mark of Len()
	_        [cacheLineBytes - 5*8]byte
}

// observeSize raises the profile's max-size high-water mark to at least n.
func (p *profile) observeSize(n int) {
	for {
		cur := p.maxSize.Load()
		if int64(n) <= cur {
			return
		}
		if p.maxSize.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// profilePool recycles profiles between monitoring windows: sites churn
// through one profile per monitored instance, and it is the dominant
// allocation of the monitored-creation path after the monitor itself.
// Entries are zeroed on release, so Get always hands back a clean profile.
// Profiles are recyclable precisely when their monitor has been collected
// (the weak reference reports nil): the monitor's death is what guarantees
// no recorder can still reach the counters. The monitor wrappers themselves
// cannot be pooled for the same reason in reverse — their collection by the
// GC is the instance-death signal, so by the time the framework knows one
// is free it no longer exists.
var profilePool = sync.Pool{New: func() any { return new(profile) }}

// newProfile returns a zeroed profile, recycled when one is available.
func newProfile() *profile {
	return profilePool.Get().(*profile)
}

// release zeroes the profile and returns it to the pool. Callers must
// guarantee no recorder can still reach it (see profilePool).
func (p *profile) release() {
	p.adds.Store(0)
	p.contains.Store(0)
	p.iterates.Store(0)
	p.middles.Store(0)
	p.maxSize.Store(0)
	profilePool.Put(p)
}

// snapshot reads the counters into the immutable Workload the analyzer
// folds.
func (p *profile) snapshot() Workload {
	return Workload{
		Adds:     p.adds.Load(),
		Contains: p.contains.Load(),
		Iterates: p.iterates.Load(),
		Middles:  p.middles.Load(),
		MaxSize:  p.maxSize.Load(),
	}
}
