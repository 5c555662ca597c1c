package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/obs"
)

func TestDuplicateContextNamesDisambiguated(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{WindowSize: 10, Name: "dup", Sink: col})
	defer e.Close()

	first := NewListContext[int](e, WithName("site:x"))
	taken := NewSetContext[int](e, WithName("site:x#2")) // occupies the obvious suffix
	second := NewMapContext[int, int](e, WithName("site:x"))
	third := NewListContext[int](e, WithName("site:x"))

	if got := first.Name(); got != "site:x" {
		t.Errorf("first registrant renamed to %q, want site:x untouched", got)
	}
	if got := taken.Name(); got != "site:x#2" {
		t.Errorf("explicit site:x#2 renamed to %q", got)
	}
	if got := second.Name(); got != "site:x#3" {
		t.Errorf("second site:x = %q, want site:x#3 (probe past the taken #2)", got)
	}
	if got := third.Name(); got != "site:x#4" {
		t.Errorf("third site:x = %q, want site:x#4", got)
	}

	var dups []obs.DuplicateContextName
	for _, ev := range col.Events() {
		if d, ok := ev.(obs.DuplicateContextName); ok {
			dups = append(dups, d)
		}
	}
	want := []obs.DuplicateContextName{
		{Engine: "dup", Name: "site:x", Renamed: "site:x#3"},
		{Engine: "dup", Name: "site:x", Renamed: "site:x#4"},
	}
	if len(dups) != len(want) {
		t.Fatalf("saw %d DuplicateContextName events, want %d: %v", len(dups), len(want), dups)
	}
	for i, d := range dups {
		if d != want[i] {
			t.Errorf("dup event %d = %+v, want %+v", i, d, want[i])
		}
	}
	// The ContextRegistered event must carry the disambiguated name, so the
	// rest of the trace (Table 6 rows, window lines) never silently merges.
	var regs []string
	for _, ev := range col.Events() {
		if r, ok := ev.(obs.ContextRegistered); ok {
			regs = append(regs, r.Context)
		}
	}
	wantRegs := []string{"site:x", "site:x#2", "site:x#3", "site:x#4"}
	for i, r := range regs {
		if r != wantRegs[i] {
			t.Errorf("registration %d announced %q, want %q", i, r, wantRegs[i])
		}
	}
}

// TestRoundNumberingConventions pins the relationships documented under
// "Round numbering" in package obs: engine passes are 0-based, context
// monitoring rounds are 1-based completed ordinals, and Transition.Round is
// the deliberate 0-based exception (WindowClosed.Round - 1).
func TestRoundNumberingConventions(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: -1, // reopen immediately so round two runs back to back
		Name:            "rounds",
		Sink:            col,
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("rounds:list"))

	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow() // pass 0, closes monitoring round 1 (with a transition)
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow() // pass 1, closes monitoring round 2

	var passStarts, passEnds, windowRounds, cooldownRounds, transitionRounds, statRounds []int
	for _, ev := range col.Events() {
		switch v := ev.(type) {
		case obs.RoundStarted:
			passStarts = append(passStarts, v.Round)
		case obs.RoundCompleted:
			passEnds = append(passEnds, v.Round)
			for _, s := range v.Contexts {
				statRounds = append(statRounds, s.Round)
			}
		case obs.WindowClosed:
			windowRounds = append(windowRounds, v.Round)
		case obs.CooldownEntered:
			cooldownRounds = append(cooldownRounds, v.Round)
		case obs.Transition:
			transitionRounds = append(transitionRounds, v.Round)
		}
	}

	assertInts := func(label string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", label, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s = %v, want %v", label, got, want)
				return
			}
		}
	}
	// Engine analysis passes: 0-based.
	assertInts("RoundStarted rounds", passStarts, []int{0, 1})
	assertInts("RoundCompleted rounds", passEnds, []int{0, 1})
	// Context monitoring rounds: 1-based completed ordinals.
	assertInts("WindowClosed rounds", windowRounds, []int{1, 2})
	// ContextWindowStat.Round == rounds completed when the pass ended ==
	// the 1-based ordinal of the last closed round.
	assertInts("ContextWindowStat rounds", statRounds, []int{1, 2})
	if got := ctx.Round(); got != 2 {
		t.Errorf("ctx.Round() = %d, want 2 completed rounds", got)
	}
	// Transition.Round is the deliberate 0-based exception: the index of the
	// monitoring round in progress when the switch fired.
	if len(transitionRounds) == 0 {
		t.Fatal("no transition fired; workload should force array -> hasharray")
	}
	if transitionRounds[0] != windowRounds[0]-1 {
		t.Errorf("Transition.Round = %d, want WindowClosed.Round-1 = %d",
			transitionRounds[0], windowRounds[0]-1)
	}
	// CooldownWindows < 0 disables the cooldown, so no CooldownEntered should
	// appear; the 1-based convention for it is covered by TestEngineEventFlow.
	assertInts("CooldownEntered rounds", cooldownRounds, nil)
}

// TestConcurrentCreationRace hammers all three context types from many
// goroutines while a background engine analyzes concurrently. Run under
// -race (CI does) it proves the lock-light creation path and the parallel
// analysis pool are data-race free.
func TestConcurrentCreationRace(t *testing.T) {
	e := NewEngine(Config{
		WindowSize:      25,
		FinishedRatio:   0.6,
		MonitorRate:     time.Millisecond,
		Rule:            Rtime(),
		CooldownWindows: 1,
	})
	defer e.Close()

	lists := NewListContext[int](e, WithName("race:list"))
	sets := NewSetContext[int](e, WithName("race:set"))
	maps := NewMapContext[int, int](e, WithName("race:map"))

	const goroutines = 8
	const perG = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l := lists.NewList()
				l.Add(i)
				l.Contains(i)
				s := sets.NewSet()
				s.Add(i)
				m := maps.NewMap()
				m.Put(i, g)
				if i%100 == 0 {
					runtime.GC()
					e.AnalyzeNow() // manual passes race against the background loop
				}
			}
		}(g)
	}
	wg.Wait()

	want := int64(3 * goroutines * perG)
	if got := e.Metrics().InstancesCreated.Load(); got != want {
		t.Errorf("InstancesCreated = %d, want %d (no creation lost or duplicated)", got, want)
	}
}

// fastPathContext returns a list context parked in the given state:
// stateWindowFull (window filled, awaiting analysis — the pure-load fast
// path) or a cooldown with budget CAS-decrement slots remaining.
func fastPathContext(t testing.TB, state int64, budget int) (*Engine, *ListContext[int]) {
	t.Helper()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: float64(budget) / 10.0,
	})
	ctx := NewListContext[int](e, WithName("fast:list"))
	for i := 0; i < 10; i++ {
		ctx.NewList().Add(i)
	}
	if state == stateWindowFull {
		if got := ctx.core.state.Load(); got != stateWindowFull {
			t.Fatalf("state = %d after filling the window, want %d", got, stateWindowFull)
		}
		return e, ctx
	}
	runtime.GC()
	e.AnalyzeNow() // closes the round, entering the cooldown
	if got := ctx.core.state.Load(); got != int64(budget) {
		t.Fatalf("state = %d after analysis, want cooldown %d", got, budget)
	}
	return e, ctx
}

// allocSink forces the measured collections to escape, so the baseline and
// the context path are compared on equal footing.
var allocSink collections.List[int]

// TestFastPathAllocsOnlyCollection asserts the creation fast path allocates
// nothing beyond what the variant factory itself allocates, in both
// lock-free states (window full and cooldown).
func TestFastPathAllocsOnlyCollection(t *testing.T) {
	baseline := testing.AllocsPerRun(200, func() { allocSink = collections.NewArrayListCap[int](0) })

	t.Run("window-full", func(t *testing.T) {
		e, ctx := fastPathContext(t, stateWindowFull, 0)
		defer e.Close()
		got := testing.AllocsPerRun(200, func() { allocSink = ctx.NewList() })
		if got > baseline {
			t.Errorf("fast path allocs/op = %g, factory alone = %g", got, baseline)
		}
	})
	t.Run("cooldown", func(t *testing.T) {
		// Budget must outlast AllocsPerRun's warmup + measured runs.
		e, ctx := fastPathContext(t, 1, 1000)
		defer e.Close()
		got := testing.AllocsPerRun(200, func() { allocSink = ctx.NewList() })
		if got > baseline {
			t.Errorf("cooldown path allocs/op = %g, factory alone = %g", got, baseline)
		}
		if rem := ctx.core.state.Load(); rem <= 0 || rem >= 1000 {
			t.Errorf("cooldown budget = %d after runs, want decremented within (0, 1000)", rem)
		}
	})
}

// TestFastPathTakesNoMutex proves lock-freedom directly: with the context
// mutex held by the test, window-full creations must still return (the slow
// path would deadlock here).
func TestFastPathTakesNoMutex(t *testing.T) {
	e, ctx := fastPathContext(t, stateWindowFull, 0)
	defer e.Close()
	ctx.core.mu.Lock()
	defer ctx.core.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			ctx.NewList().Add(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("window-full creation blocked on the context mutex")
	}
}

// BenchmarkNewParallel measures contended creation throughput on the
// lock-free fast path (window full, awaiting the finished ratio — a pure
// atomic load, no CAS, no mutex). Allocations per op should equal the
// variant factory's own footprint; compare BenchmarkNewListBaseline.
func BenchmarkNewParallel(b *testing.B) {
	e, ctx := fastPathContext(b, stateWindowFull, 0)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = ctx.NewList()
		}
	})
}

// BenchmarkNewParallelCooldown exercises the CAS-decrement cooldown path
// under contention. The cooldown budget is topped back up outside the timer
// whenever it runs dry.
func BenchmarkNewParallelCooldown(b *testing.B) {
	e, ctx := fastPathContext(b, 1, 1<<30)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = ctx.NewList()
		}
	})
	if ctx.core.state.Load() <= 0 {
		b.Fatal("cooldown budget exhausted mid-benchmark; raise the top-up")
	}
}

// BenchmarkNewListBaseline is the factory-only control for the parallel
// creation benchmarks.
func BenchmarkNewListBaseline(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = collections.NewArrayListCap[int](0)
		}
	})
}
