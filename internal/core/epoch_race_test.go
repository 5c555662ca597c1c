package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEpochDrainingNoLostOps hammers one site from concurrent recorders
// while AnalyzeNow closes windows concurrently, then asserts the framework's
// aggregated totals equal a reference count the test kept in a plain atomic:
// epoch advancing must neither lose nor double-count a single operation.
//
// FinishedRatio 1 makes the assertion exact: a window only closes once every
// monitored instance in it is dead, so each profile is folded exactly once,
// after its last recorded operation (the weak reference clears only when the
// GC has proven the monitor unreachable, which no in-flight operation
// survives). The reference counter is bumped while the instance is still
// strongly held, so it too is complete before the fold can happen.
func TestEpochDrainingNoLostOps(t *testing.T) {
	e := NewEngineManual(Config{
		WindowSize:      8,
		FinishedRatio:   1,
		CooldownWindows: -1, // every creation is eligible to be monitored
		Rule:            ImpossibleRule(),
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("race:epoch-drain"))

	var refAdds, refContains, monitored atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const recorders = 4
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := ctx.NewList()
				k := 1 + (i+g)%7
				for j := 0; j < k; j++ {
					l.Add(j)
				}
				l.Contains(0)
				if _, ok := l.(*monitoredList[int]); ok {
					// The instance is still strongly referenced here, so its
					// profile cannot have been folded yet: the reference
					// counts are complete before the framework's.
					refAdds.Add(int64(k))
					refContains.Add(1)
					monitored.Add(1)
				}
				i++
			}
		}(g)
	}
	// The analyzer races the recorders: folds, window closes and epoch
	// advances run against live Add/Contains traffic.
	analyzeDone := make(chan struct{})
	go func() {
		defer close(analyzeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.GC()
			e.AnalyzeNow()
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	<-analyzeDone

	// Drain: every instance is now dropped; keep collecting and analyzing
	// until the framework has folded everything the recorders counted.
	siteTotals := func() (Workload, int64) {
		snaps := e.SiteSnapshots()
		if len(snaps) != 1 {
			t.Fatalf("SiteSnapshots = %d sites, want 1", len(snaps))
		}
		p := snaps[0].Profile
		// The profile stores counts as float64; they are exact integers far
		// below the 2^53 mantissa limit at this scale.
		return Workload{Adds: int64(p.Adds), Contains: int64(p.Contains)}, p.Instances
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		e.AnalyzeNow()
		got, instances := siteTotals()
		if got.Adds == refAdds.Load() && got.Contains == refContains.Load() && instances == monitored.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain did not converge: folded adds=%d contains=%d instances=%d, reference adds=%d contains=%d instances=%d",
				got.Adds, got.Contains, instances, refAdds.Load(), refContains.Load(), monitored.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Exactness both ways: the folded totals equal the reference exactly —
	// nothing lost, nothing double-counted — and every monitored instance
	// was folded exactly once.
	got, instances := siteTotals()
	if got.Adds != refAdds.Load() || got.Contains != refContains.Load() {
		t.Errorf("folded totals adds=%d contains=%d != reference adds=%d contains=%d",
			got.Adds, got.Contains, refAdds.Load(), refContains.Load())
	}
	if instances != monitored.Load() {
		t.Errorf("folded instances = %d, want %d", instances, monitored.Load())
	}
	if mon := e.Metrics().InstancesMonitored.Load(); mon != monitored.Load() {
		t.Errorf("InstancesMonitored = %d, want %d", mon, monitored.Load())
	}
	if monitored.Load() == 0 {
		t.Error("hammer produced no monitored instances — test exercised nothing")
	}
}

// TestLateBounceRecyclesProfile pins the window-boundary path: a creation
// that finds the window full after the fast-path gate said open must hand
// out a bare (unmonitored) collection and drop its speculative record
// without ever exposing its profile. (The name dates from pooled profiles;
// the dropped record is now ordinary garbage.)
func TestLateBounceRecyclesProfile(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 2, CooldownWindows: -1, Rule: ImpossibleRule()})
	defer e.Close()
	ctx := NewSetContext[int](e, WithName("race:bounce"))
	a, b := ctx.NewSet(), ctx.NewSet()
	if _, ok := a.(*monitoredSet[int]); !ok {
		t.Fatal("first creation not monitored")
	}
	if _, ok := b.(*monitoredSet[int]); !ok {
		t.Fatal("second creation not monitored")
	}
	// Window full: the state gate now bounces creations on the fast path,
	// but a creator that already passed the gate must bounce safely inside
	// newMonitored too.
	if got := ctx.core.state.Load(); got != stateWindowFull {
		t.Fatalf("state = %d, want stateWindowFull", got)
	}
	ctx.core.state.Store(stateOpen) // simulate the stale-gate racer
	c := ctx.NewSet()
	if _, ok := c.(*monitoredSet[int]); ok {
		t.Fatal("bounced creation still monitored")
	}
	if got := ctx.core.state.Load(); got != stateWindowFull {
		t.Fatalf("bounce did not republish the gate: state = %d", got)
	}
	if got := ctx.core.win.Load().fill.Load(); got != 2 {
		t.Fatalf("window fill = %d, want 2", got)
	}
}
