package core

import (
	"testing"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// BenchmarkContextCreation measures the per-instance cost of drawing a
// collection from a context, monitored (inside the window) and unmonitored
// (fast path).
func BenchmarkContextCreation(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		var sink collections.List[int]
		for i := 0; i < b.N; i++ {
			sink = collections.NewArrayList[int]()
		}
		_ = sink
	})
	b.Run("context-unmonitored", func(b *testing.B) {
		e := NewEngineManual(Config{WindowSize: 1})
		defer e.Close()
		ctx := NewListContext[int](e)
		ctx.NewList() // fill the 1-instance window
		b.ReportAllocs()
		b.ResetTimer()
		var sink collections.List[int]
		for i := 0; i < b.N; i++ {
			sink = ctx.NewList()
		}
		_ = sink
	})
	b.Run("context-monitored", func(b *testing.B) {
		e := NewEngineManual(Config{WindowSize: 1 << 31})
		defer e.Close()
		ctx := NewListContext[int](e)
		b.ReportAllocs()
		b.ResetTimer()
		var sink collections.List[int]
		for i := 0; i < b.N; i++ {
			sink = ctx.NewList()
		}
		_ = sink
	})
}

// BenchmarkMonitoredOps measures the per-operation monitor tax.
func BenchmarkMonitoredOps(b *testing.B) {
	bare := collections.NewArrayList[int]()
	mon, _ := wrapList(collections.NewArrayList[int](), new(profile))
	for i := 0; i < 100; i++ {
		bare.Add(i)
		mon.Add(i)
	}
	b.Run("bare-contains", func(b *testing.B) {
		sink := false
		for i := 0; i < b.N; i++ {
			sink = bare.Contains(i % 200)
		}
		_ = sink
	})
	b.Run("monitored-contains", func(b *testing.B) {
		sink := false
		for i := 0; i < b.N; i++ {
			sink = mon.Contains(i % 200)
		}
		_ = sink
	})
}

// BenchmarkFold measures the incremental cost of folding one finished
// instance into the per-variant totals — the amortized analysis work per
// monitored instance.
func BenchmarkFold(b *testing.B) {
	models := perfmodel.Default()
	agg := newCostAgg(models, setCandidates())
	w := Workload{Adds: 200, Contains: 100, Iterates: 3, MaxSize: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.fold(w)
	}
}

// BenchmarkDecide measures the decision step itself (the Figure 7 quantity,
// here in testing.B form).
func BenchmarkDecide(b *testing.B) {
	models := perfmodel.Default()
	agg := newCostAgg(models, setCandidates())
	for i := 0; i < 100; i++ {
		agg.fold(Workload{Adds: int64(10 + i*7), Contains: 100, MaxSize: int64(10 + i*7)})
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		if d := decide(agg, collections.HashSetID, Rtime(), 40); d.ok {
			sink++
		}
	}
	_ = sink
}
