// Package workload provides the deterministic workload generators behind
// the micro-benchmark experiments (Section 5.1): the single-phase scenario
// (populate + lookups, Figure 5) and the multi-phase scenario whose dominant
// operation changes over time (Figure 6).
package workload

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/collections"
)

// Result captures one scenario run.
type Result struct {
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// AllocBytes is the total heap allocation during the run.
	AllocBytes uint64
}

// measure runs fn, returning elapsed time and allocated bytes.
func measure(fn func()) Result {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{Elapsed: elapsed, AllocBytes: after.TotalAlloc - before.TotalAlloc}
}

// draw returns the inputs every runner derives from its seed: size distinct
// keys from [0, 2·size) and 128 lookup probes from the same range.
func draw(size int, seed int64) (keys, probes []int) {
	r := rand.New(rand.NewSource(seed))
	keys = r.Perm(size * 2)[:size]
	probes = make([]int, 128)
	for i := range probes {
		probes[i] = r.Intn(size * 2)
	}
	return keys, probes
}

// repeat runs body once per instance. A non-nil hook runs after every
// `every` instances, or once after the last when every <= 0. Runs whose
// factory comes from a CollectionSwitch allocation context use the hook to
// force a GC (so monitors' weak references clear) and drive the analysis
// engine — the role the JVM's GC and the background analyzer thread play in
// the paper's setup. A nil hook is a plain run.
func repeat(instances, every int, hook func(), body func()) {
	if every <= 0 {
		every = instances
	}
	for i := 1; i <= instances; i++ {
		body()
		if hook != nil && i%every == 0 {
			hook()
		}
	}
}

// SinglePhaseList is the Figure 5a scenario: create instances lists, add
// size uniform elements to each, then run lookups Contains calls per
// instance, calling hook as repeat describes. The sink return defeats
// dead-code elimination.
func SinglePhaseList(newList func() collections.List[int], instances, size, lookups int, seed int64, every int, hook func()) (Result, int) {
	keys, probes := draw(size, seed)
	sink := 0
	res := measure(func() {
		repeat(instances, every, hook, func() {
			l := newList()
			for _, k := range keys {
				l.Add(k)
			}
			for j := 0; j < lookups; j++ {
				if l.Contains(probes[j%len(probes)]) {
					sink++
				}
			}
		})
	})
	return res, sink
}

// SinglePhaseSet is the Figure 5b/5d scenario for sets.
func SinglePhaseSet(newSet func() collections.Set[int], instances, size, lookups int, seed int64, every int, hook func()) (Result, int) {
	keys, probes := draw(size, seed)
	sink := 0
	res := measure(func() {
		repeat(instances, every, hook, func() {
			s := newSet()
			for _, k := range keys {
				s.Add(k)
			}
			for j := 0; j < lookups; j++ {
				if s.Contains(probes[j%len(probes)]) {
					sink++
				}
			}
		})
	})
	return res, sink
}

// SinglePhaseMap is the Figure 5c/5e scenario for maps.
func SinglePhaseMap(newMap func() collections.Map[int, int], instances, size, lookups int, seed int64, every int, hook func()) (Result, int) {
	keys, probes := draw(size, seed)
	sink := 0
	res := measure(func() {
		repeat(instances, every, hook, func() {
			m := newMap()
			for _, k := range keys {
				m.Put(k, k)
			}
			for j := 0; j < lookups; j++ {
				if _, ok := m.Get(probes[j%len(probes)]); ok {
					sink++
				}
			}
		})
	})
	return res, sink
}

// Phase names one phase of the multi-phased scenario (Figure 6 x-axis).
type Phase string

// The five phases of Figure 6, in order.
const (
	PhaseContains     Phase = "contains"
	PhaseIteration    Phase = "iteration"
	PhaseIndex        Phase = "index operation"
	PhaseSearchRemove Phase = "search and remove"
	PhaseContains2    Phase = "contains (again)"
)

// Phases returns the Figure 6 phase sequence.
func Phases() []Phase {
	return []Phase{PhaseContains, PhaseIteration, PhaseIndex, PhaseSearchRemove, PhaseContains2}
}

// MultiPhaseIteration runs one iteration of the Figure 6 experiment: create
// instances lists, populate each to size, then run ops operations of the
// phase's dominant type on each, calling hook as repeat describes. Returns
// the elapsed time.
func MultiPhaseIteration(newList func() collections.List[int], phase Phase, instances, size, ops int, seed int64, every int, hook func()) (time.Duration, int) {
	keys, probes := draw(size, seed)
	sink := 0
	start := time.Now()
	repeat(instances, every, hook, func() {
		l := newList()
		for _, k := range keys {
			l.Add(k)
		}
		switch phase {
		case PhaseContains, PhaseContains2:
			for j := 0; j < ops; j++ {
				if l.Contains(probes[j%len(probes)]) {
					sink++
				}
			}
		case PhaseIteration:
			for j := 0; j < ops; j++ {
				l.ForEach(func(v int) bool { sink += v; return true })
			}
		case PhaseIndex:
			for j := 0; j < ops; j++ {
				sink += l.Get(j % l.Len())
			}
		case PhaseSearchRemove:
			for j := 0; j < ops && l.Len() > 0; j++ {
				v := probes[j%len(probes)]
				if l.Remove(v) {
					sink++
				}
			}
		}
	})
	return time.Since(start), sink
}
