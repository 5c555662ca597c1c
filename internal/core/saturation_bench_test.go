package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/collections"
)

// BenchmarkMonitorSaturation measures the monitoring tax with every core
// busy: all workers hammer ONE shared monitored collection, so every
// profile-counter update lands on the same cache line — the worst case for
// shared-atomic counters (cross-core cache-line ping-pong). The unmonitored
// sub-benchmarks run the identical op mix against the bare variant; the
// monitored-minus-unmonitored ns/op delta is the per-operation monitor
// overhead at saturation. Run at GOMAXPROCS 1 and NumCPU (deduplicated on
// single-CPU hosts); results are recorded under results/ and discussed in
// EXPERIMENTS.md ("Monitoring overhead at saturation").
//
// The op mix is read-only on the inner collection (Contains probes plus a
// periodic full iteration) so the shared instance needs no external locking
// and the measured delta isolates the monitor layer itself.
func BenchmarkMonitorSaturation(b *testing.B) {
	procsList := []int{1, runtime.NumCPU()}
	if procsList[1] == procsList[0] {
		procsList = procsList[:1]
	}
	for _, procs := range procsList {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			const setSize = 1024
			bare := collections.NewHashSet[int]()
			for i := 0; i < setSize; i++ {
				bare.Add(i)
			}
			mon := monitoredSaturationSet(b, setSize)

			run := func(name string, s collections.Set[int]) {
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					b.RunParallel(func(pb *testing.PB) {
						i := 0
						sink := 0
						for pb.Next() {
							// 50% hits, 50% misses, one traversal per 256 ops.
							if s.Contains(i & (2*setSize - 1)) {
								sink++
							}
							if i&255 == 255 {
								s.ForEach(func(int) bool { sink++; return sink < 0 })
							}
							i++
						}
						_ = sink
					})
				})
			}
			run("unmonitored", bare)
			run("monitored", mon)
		})
	}
}

// monitoredSaturationSet draws a monitored set through a real context (so the
// benchmark exercises exactly the wrapping the engine performs) and populates
// it to size n.
func monitoredSaturationSet(b *testing.B, n int) collections.Set[int] {
	b.Helper()
	e := NewEngineManual(Config{WindowSize: 1 << 20})
	b.Cleanup(e.Close)
	ctx := NewSetContext[int](e, WithName("bench:saturation"))
	s := ctx.NewSet()
	if _, ok := s.(*monitoredSet[int]); !ok {
		b.Fatal("first instance of a fresh window is not monitored")
	}
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}
