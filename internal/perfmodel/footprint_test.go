package perfmodel

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// A model set is a fixed handful of heap objects: its tables hold no
// pointer, so a collection marks them without scanning them. With a slice
// per curve and piece, a Default() set would be about 980 objects.
func TestDefaultModelsHeapObjects(t *testing.T) {
	const sets, maxPerSet = 8, 16
	Default() // intern the names before the first reading
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live := make([]*Models, sets)
	for i := range live {
		live[i] = Default()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(live)
	perSet := (int64(after.HeapObjects) - int64(before.HeapObjects)) / sets
	if perSet > maxPerSet {
		t.Errorf("a Default() set is retained in %d heap objects, want at most %d", perSet, maxPerSet)
	}
}

// BenchmarkForcedGCDefaultModels reports what a live default model set adds
// to each forced collection, the cost every apps checkpoint pays: the median
// runtime.GC() with one set live minus the median with none, over b.N
// collections each. The two states alternate in blocks, so a drift of the
// host's speed reaches both medians, and both build a set, so they differ
// only in whether it is kept: the build's garbage is the same in each.
func BenchmarkForcedGCDefaultModels(b *testing.B) {
	const block = 10
	var with, without []time.Duration
	timeGCs := func(into []time.Duration) []time.Duration {
		runtime.GC() // untimed: frees the build's garbage
		for range block {
			t0 := time.Now()
			runtime.GC()
			into = append(into, time.Since(t0))
		}
		return into
	}
	round := func() {
		m := Default()
		with = timeGCs(with)
		runtime.KeepAlive(m)
		Default()
		without = timeGCs(without)
	}
	round() // untimed: a process's first collections are slower
	with, without = with[:0], without[:0]
	for len(with) < b.N {
		round()
	}
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	b.ReportMetric(float64(median(with)-median(without))/1e3, "extra-us/gc")
}
