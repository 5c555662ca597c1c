package core

import "sync/atomic"

// cacheLineBytes is the coherence granularity a profile is padded to.
const cacheLineBytes = 64

// profile accumulates the workload of one monitored collection instance —
// the record path of the whole framework: every critical operation on a
// monitored collection lands here as one atomic add (monitor.go). The
// monitored collection may live on any goroutine while the analyzer reads
// concurrently; every field access is atomic. The five counters occupy 40
// bytes; the pad grows the struct to one full cache line, and siteRecord
// places it on a line of its own, so a profile never shares a line with
// another object's hot fields.
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
