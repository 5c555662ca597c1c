package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// closeSite is a set context over the whole set catalog (at least eight
// candidates) on a manual Rtime engine with no sink and no cooldown, so every
// full window of finished instances closes at the next pass.
func closeSite(tb testing.TB) (*Engine, *SetContext[int]) {
	tb.Helper()
	e := NewEngineManual(Config{WindowSize: 10, FinishedRatio: 0.6, Rule: Rtime(), CooldownWindows: -1})
	ctx := NewSetContext[int](e, WithName("close:set"))
	if n := len(ctx.core.candidates); n < 8 {
		tb.Fatalf("set context has %d candidates, want at least 8", n)
	}
	return e, ctx
}

// churnSets creates n sets through ctx with seeded sizes and lookups and
// drops them all, then forces a collection so their weak references clear.
func churnSets(ctx *SetContext[int], rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		s := ctx.NewSet()
		size := 2 + rng.Intn(200)
		for j := 0; j < size; j++ {
			s.Add(j)
		}
		for j := 0; j < 100+rng.Intn(100); j++ {
			s.Contains(j)
		}
	}
	runtime.GC()
}

// TestWindowCloseAllocs pins what one fold-and-close pass costs in
// allocations: a pass over a full window of finished instances folds them,
// decides, records the decision and opens the next window. The candidates'
// curves are resolved once per model set and explanations are built only
// when Explain reads them, so the pass allocates its new window, its
// zeroed totals and the engine's per-pass bookkeeping, whatever the
// candidate count.
func TestWindowCloseAllocs(t *testing.T) {
	e, ctx := closeSite(t)
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	const passes = 8
	var total uint64
	for i := 0; i < passes; i++ {
		churnSets(ctx, rng, 10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.AnalyzeNow()
		runtime.ReadMemStats(&after)
		if got := ctx.Round(); got != i+1 {
			t.Fatalf("pass %d left the context at round %d, want %d", i, got, i+1)
		}
		total += after.Mallocs - before.Mallocs
	}
	if mean := float64(total) / passes; mean > 16 {
		t.Errorf("a fold-and-close pass allocates %.1f times, want at most 16", mean)
	}
}

// TestCurvesResolvedOncePerModelSet pins the curve cache: consecutive
// windows over one model set share one pricing table instead of resolving
// every candidate's curves again, and the first pass after SetModels
// re-resolves against the new set — the window it re-folds and the ones
// after it rank under the new models.
func TestCurvesResolvedOncePerModelSet(t *testing.T) {
	e, ctx := closeSite(t)
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	first := ctx.core.agg.pricing
	for i := 0; i < 3; i++ {
		churnSets(ctx, rng, 10)
		e.AnalyzeNow()
		if got := ctx.core.agg.pricing; got != first {
			t.Fatalf("window %d resolved its curves again under the same models", i+1)
		}
	}
	swapped := varianceSetModels()
	e.SetModels(swapped)
	churnSets(ctx, rng, 5)
	e.AnalyzeNow() // half a window: re-folded against the new set
	refolded := ctx.core.agg.pricing
	if refolded == first || refolded.models != swapped {
		t.Fatal("the window open across SetModels did not re-resolve against the new models")
	}
	if ctx.core.agg.folded != 5 {
		t.Fatalf("re-folded window holds %d instances, want 5", ctx.core.agg.folded)
	}
	churnSets(ctx, rng, 5)
	e.AnalyzeNow()
	if got := ctx.core.agg.pricing; got != refolded {
		t.Fatal("the window after the swap resolved its curves again")
	}
	if ctx.Round() != 4 {
		t.Fatalf("round = %d, want 4", ctx.Round())
	}
}

// BenchmarkWindowClose measures one window close at a set context with no
// sink: the rule evaluation, the decision record and the advance to the next
// window. Nine of the window's ten
// instances are folded before the timer starts; the timed pass folds the
// tenth, still alive, at decision time and closes the window.
func BenchmarkWindowClose(b *testing.B) {
	e, ctx := closeSite(b)
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churnSets(ctx, rng, 9)
		ctx.core.analyze()
		live := ctx.NewSet()
		live.Add(i)
		b.StartTimer()
		ctx.core.analyze()
		b.StopTimer()
		runtime.KeepAlive(live)
		if got := ctx.Round(); got != i+1 {
			b.Fatalf("iteration %d left the context at round %d, want %d", i, got, i+1)
		}
		b.StartTimer()
	}
}
