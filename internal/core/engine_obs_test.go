package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventKinds projects a collector's stream to its kind sequence.
func eventKinds(events []obs.Event) []obs.Kind {
	out := make([]obs.Kind, len(events))
	for i, e := range events {
		out[i] = e.EventKind()
	}
	return out
}

func firstOfKind(events []obs.Event, k obs.Kind) (obs.Event, bool) {
	for _, e := range events {
		if e.EventKind() == k {
			return e, true
		}
	}
	return nil, false
}

func TestRegisterAfterCloseIsLoggedNoOp(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{WindowSize: 10, Name: "closed", Sink: col})
	e.Close()
	ctx := NewListContext[int](e, WithName("late:list"))

	if got := e.ContextCount(); got != 0 {
		t.Errorf("ContextCount = %d after post-close registration, want 0", got)
	}
	if got := e.Metrics().RegistrationsDropped.Load(); got != 1 {
		t.Errorf("RegistrationsDropped = %d, want 1", got)
	}
	ev, ok := firstOfKind(col.Events(), obs.KindContextRegistered)
	if !ok {
		t.Fatal("no ContextRegistered event emitted")
	}
	reg := ev.(obs.ContextRegistered)
	if !reg.Dropped || reg.Context != "late:list" {
		t.Errorf("event = %+v, want Dropped=true Context=late:list", reg)
	}
	// The context must stay usable for plain creation.
	l := ctx.NewList()
	l.Add(1)
	if !l.Contains(1) {
		t.Error("collection from unregistered context not functional")
	}
}

// blockingCtx is a fake analyzable whose analyze() parks until released,
// letting the test hold an analysis pass in flight.
type blockingCtx struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingCtx) analyze() {
	b.once.Do(func() { close(b.entered) })
	<-b.release
}
func (b *blockingCtx) contextName() string { return "blocking" }
func (b *blockingCtx) rename(string)       {}
func (b *blockingCtx) windowStats() obs.ContextWindowStat {
	return obs.ContextWindowStat{Context: "blocking"}
}
func (b *blockingCtx) warmStart(WarmDecision) bool       { return false }
func (b *blockingCtx) siteSnapshot() SiteSnapshot        { return SiteSnapshot{Name: "blocking"} }
func (b *blockingCtx) decisionRecords() []DecisionRecord { return nil }
func (b *blockingCtx) siteStatus() SiteStatus {
	return SiteStatus{SiteSnapshot: SiteSnapshot{Name: "blocking"}}
}

func TestCloseWaitsForInFlightAnalysis(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10})
	b := &blockingCtx{entered: make(chan struct{}), release: make(chan struct{})}
	e.register(b)

	analyzeDone := make(chan struct{})
	go func() {
		e.AnalyzeNow()
		close(analyzeDone)
	}()
	<-b.entered

	closeDone := make(chan struct{})
	go func() {
		e.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an analysis pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(b.release)
	select {
	case <-closeDone:
	case <-time.After(time.Second):
		t.Fatal("Close did not return after the analysis pass drained")
	}
	<-analyzeDone
}

func TestConfigClampEvents(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		Name:            "clamped",
		FinishedRatio:   1.5,
		CooldownWindows: -2,
		Sink:            col,
	})
	defer e.Close()

	if got := e.Config().FinishedRatio; got != 1 {
		t.Errorf("FinishedRatio = %v, want clamped to 1", got)
	}
	if got := e.Config().CooldownWindows; got != 0 {
		t.Errorf("CooldownWindows = %v, want clamped to 0", got)
	}
	if got := e.Metrics().ConfigClamps.Load(); got != 2 {
		t.Errorf("ConfigClamps = %d, want 2", got)
	}
	want := map[string]obs.ConfigClamped{
		"FinishedRatio":   {Engine: "clamped", Field: "FinishedRatio", From: 1.5, To: 1},
		"CooldownWindows": {Engine: "clamped", Field: "CooldownWindows", From: -2, To: 0},
	}
	seen := 0
	for _, ev := range col.Events() {
		cl, ok := ev.(obs.ConfigClamped)
		if !ok {
			continue
		}
		seen++
		if w, known := want[cl.Field]; !known || cl != w {
			t.Errorf("unexpected clamp event %+v", cl)
		}
	}
	if seen != 2 {
		t.Errorf("saw %d ConfigClamped events, want 2", seen)
	}
}

func TestEngineEventFlow(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: 1,
		Name:            "flow",
		Sink:            col,
	})
	ctx := NewListContext[int](e, WithName("flow:list"))
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	e.Close()

	events := col.Events()
	// The pass must order: registration, round start, transition decision,
	// window close, cooldown, round completion, engine close.
	wantOrder := []obs.Kind{
		obs.KindContextRegistered, obs.KindRoundStarted, obs.KindTransition,
		obs.KindWindowClosed, obs.KindCooldownEntered, obs.KindRoundCompleted,
		obs.KindEngineClosed,
	}
	pos := 0
	for _, k := range eventKinds(events) {
		if pos < len(wantOrder) && k == wantOrder[pos] {
			pos++
		}
	}
	if pos != len(wantOrder) {
		t.Fatalf("event order missing %s; stream: %v", wantOrder[pos], eventKinds(events))
	}

	tr, _ := firstOfKind(events, obs.KindTransition)
	trans := tr.(obs.Transition)
	if trans.From != "list/array" || trans.To != "list/hasharray" || trans.Round != 0 {
		t.Errorf("transition = %+v, want list/array -> list/hasharray at round 0", trans)
	}
	if len(trans.Ratios) == 0 {
		t.Error("transition carries no TC_D ratios")
	}

	wc, _ := firstOfKind(events, obs.KindWindowClosed)
	closed := wc.(obs.WindowClosed)
	if closed.Round != 1 || closed.Variant != "list/hasharray" || closed.WindowSize != 10 {
		t.Errorf("window closed = %+v", closed)
	}
	if closed.FinishedRatio < 0.6 || closed.FinishedRatio > 1 {
		t.Errorf("finished ratio %v outside [0.6, 1]", closed.FinishedRatio)
	}

	cd, _ := firstOfKind(events, obs.KindCooldownEntered)
	if got := cd.(obs.CooldownEntered).SkipNext; got != 10 {
		t.Errorf("cooldown skip = %d, want 10 (1 window x size 10)", got)
	}

	rc, _ := firstOfKind(events, obs.KindRoundCompleted)
	completed := rc.(obs.RoundCompleted)
	if completed.DurationNs <= 0 || len(completed.Contexts) != 1 {
		t.Errorf("round completed = %+v", completed)
	}
	if stat := completed.Contexts[0]; stat.Context != "flow:list" || stat.Round != 1 {
		t.Errorf("window stat = %+v, want flow:list after round 1", stat)
	}

	ec, _ := firstOfKind(events, obs.KindEngineClosed)
	if closedEv := ec.(obs.EngineClosed); closedEv.Contexts != 1 || closedEv.Rounds != 1 || closedEv.Transitions != 1 {
		t.Errorf("engine closed = %+v", closedEv)
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: 1,
		Name:            "metrics",
		Metrics:         reg,
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("m:list"))
	// 10 monitored creations fill the window; 5 more land in the cooldown
	// after analysis.
	churnLists(ctx, 10, 200, 200)
	e.AnalyzeNow()
	churnLists(ctx, 5, 10, 0)

	if got := reg.InstancesCreated.Load(); got != 15 {
		t.Errorf("InstancesCreated = %d, want 15", got)
	}
	if got := reg.InstancesMonitored.Load(); got != 10 {
		t.Errorf("InstancesMonitored = %d, want 10", got)
	}
	if got := reg.MonitoredFraction(); got != 10.0/15.0 {
		t.Errorf("MonitoredFraction = %v, want %v", got, 10.0/15.0)
	}
	if got := reg.ContextsRegistered.Load(); got != 1 {
		t.Errorf("ContextsRegistered = %d, want 1", got)
	}
	if got := reg.AnalysisRounds.Load(); got != 1 {
		t.Errorf("AnalysisRounds = %d, want 1", got)
	}
	if got := reg.AnalysisLatency.Count(); got != 1 {
		t.Errorf("AnalysisLatency.Count = %d, want 1", got)
	}
	if got := reg.WindowsClosed.Load(); got != 1 {
		t.Errorf("WindowsClosed = %d, want 1", got)
	}
	if got := reg.RuleEvaluations.Load(); got != 1 {
		t.Errorf("RuleEvaluations = %d, want 1", got)
	}
	if got := reg.WeakReclaims.Load(); got == 0 {
		t.Error("WeakReclaims = 0, want > 0 after GC reclaimed the window")
	}
	if got := reg.TransitionsTotal(); got != 1 {
		t.Errorf("TransitionsTotal = %d, want 1", got)
	}
	counts := reg.TransitionCounts()
	key := obs.TransitionKey{Context: "m:list", From: "list/array", To: "list/hasharray"}
	if counts[key] != 1 {
		t.Errorf("TransitionCounts = %v, want {%v: 1}", counts, key)
	}
}

// TestSharedRegistryAcrossEngines mirrors the Table 5 sweep: many engines
// aggregate into one registry.
func TestSharedRegistryAcrossEngines(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		e := NewEngineManual(Config{WindowSize: 5, Metrics: reg})
		ctx := NewListContext[int](e)
		for j := 0; j < 5; j++ {
			ctx.NewList().Add(j)
		}
		e.Close()
	}
	if got := reg.ContextsRegistered.Load(); got != 3 {
		t.Errorf("ContextsRegistered = %d, want 3", got)
	}
	if got := reg.InstancesCreated.Load(); got != 15 {
		t.Errorf("InstancesCreated = %d, want 15", got)
	}
}

func TestMetricsRegistryRaceClean(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineManual(Config{WindowSize: 20, Rule: Rtime(), Metrics: reg})
	defer e.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewListContext[int](e)
			for i := 0; i < 200; i++ {
				l := ctx.NewList()
				l.Add(i)
				l.Contains(i)
				if i%50 == 0 {
					runtime.GC()
					e.AnalyzeNow()
				}
				reg.IncTransition("race", "a", "b")
				reg.AnalysisLatency.Observe(float64(i) * 1e-6)
				_ = reg.MonitoredFraction()
				_ = reg.TransitionCounts()
			}
		}(g)
	}
	wg.Wait()
	if got := reg.TransitionCounts()[obs.TransitionKey{Context: "race", From: "a", To: "b"}]; got != 800 {
		t.Errorf("race transition count = %d, want 800", got)
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(ev obs.Event) { f(ev) }

// TestPassEventsReachSinkDuringPass pins per-event delivery: an analysis
// pass's events reach the sink while the pass runs, so a flight recorder
// (and the /events endpoint and SIGQUIT dump it backs) shows an unfinished
// pass. The probe sits behind the recorder in one Multi, so when it sees a
// WindowClosed the recorder must hold that pass's RoundStarted and not yet
// its RoundCompleted.
func TestPassEventsReachSinkDuringPass(t *testing.T) {
	rec := obs.NewFlightRecorder(256)
	pass, windows := 0, 0
	probe := sinkFunc(func(ev obs.Event) {
		if _, ok := ev.(obs.WindowClosed); !ok {
			return
		}
		windows++
		started, completed := false, false
		for _, te := range rec.Snapshot() {
			switch m := te.Event.(type) {
			case obs.RoundStarted:
				started = started || m.Round == pass
			case obs.RoundCompleted:
				completed = completed || m.Round == pass
			}
		}
		if !started || completed {
			t.Errorf("pass %d: WindowClosed reached the sink with RoundStarted recorded = %v, RoundCompleted recorded = %v; want true, false",
				pass, started, completed)
		}
	})
	e := NewEngineManual(Config{
		WindowSize:      4,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: -1,
		Sink:            obs.Multi(rec, probe),
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("live:list"))
	const passes = 3
	for pass = 0; pass < passes; pass++ {
		churnLists(ctx, 4, 50, 50)
		e.AnalyzeNow()
	}
	if windows != passes {
		t.Fatalf("probe saw %d WindowClosed events, want %d", windows, passes)
	}
}

// runSeededPasses drives one seeded workload over nine list contexts
// through four analysis passes, with a span per context per pass, into
// sink. It returns the context names in registration order.
func runSeededPasses(sink obs.Sink) []string {
	const window = 8
	e := NewEngineManual(Config{
		WindowSize:      window,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: -1,
		AnalysisSpans:   true,
		Name:            "seeded",
		Sink:            sink,
	})
	ctxs := make([]*ListContext[int], 9)
	names := make([]string, len(ctxs))
	for i := range ctxs {
		ctxs[i] = NewListContext[int](e, WithName(fmt.Sprintf("par:list%d", i)))
		names[i] = ctxs[i].Name()
	}
	rng := rand.New(rand.NewSource(16))
	for range 4 {
		// Up to 1.5 windows per context: some contexts close a window in a
		// pass and others do not.
		for _, c := range ctxs {
			churnLists(c, rng.Intn(window+window/2), 1+rng.Intn(300), rng.Intn(300))
		}
		e.AnalyzeNow()
	}
	e.Close()
	return names
}

// TestParallelPassDeliversEveryEvent pins event delivery while a pass runs:
// every pass's events lie between its RoundStarted and RoundCompleted, and
// each context whose round advanced in a pass reports exactly one
// WindowClosed in it.
func TestParallelPassDeliversEveryEvent(t *testing.T) {
	col := obs.NewCollector()
	runSeededPasses(col)
	open := -1                 // index of the running pass; -1 between passes
	closes := map[string]int{} // context -> WindowClosed events in the running pass
	rounds := map[string]int{} // context -> completed rounds at the last pass end
	windows := 0
	for _, ev := range col.Events() {
		switch m := ev.(type) {
		case obs.RoundStarted:
			if open >= 0 {
				t.Fatalf("RoundStarted %d inside pass %d", m.Round, open)
			}
			open = m.Round
			clear(closes)
		case obs.RoundCompleted:
			if m.Round != open {
				t.Fatalf("RoundCompleted %d closes pass %d", m.Round, open)
			}
			for _, st := range m.Contexts {
				if want := st.Round - rounds[st.Context]; closes[st.Context] != want {
					t.Errorf("pass %d: %s sent %d WindowClosed, want %d", open, st.Context, closes[st.Context], want)
				}
				rounds[st.Context] = st.Round
			}
			open = -1
		case obs.WindowClosed, obs.Transition, obs.CooldownEntered, obs.ContextAnalyzed:
			if open < 0 {
				t.Errorf("%s outside any pass", ev.EventKind())
			}
			if wc, ok := m.(obs.WindowClosed); ok {
				closes[wc.Context]++
				windows++
			}
		}
	}
	if windows == 0 {
		t.Fatal("workload closed no window")
	}
}

// goroutineID returns the calling goroutine's number, read from the header
// line runtime.Stack writes ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestPassDeliversEventsInRegistrationOrder pins that a pass analyzes its
// contexts one after another on the goroutine that called AnalyzeNow, with
// two CPUs available: each pass delivers, from that goroutine, every
// context's WindowClosed (if it closed a window) and then its
// ContextAnalyzed, context by context in registration order.
func TestPassDeliversEventsInRegistrationOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	caller := goroutineID()
	var foreign atomic.Int64
	col := obs.NewCollector()
	names := runSeededPasses(obs.Multi(col, sinkFunc(func(ev obs.Event) {
		if goroutineID() != caller {
			foreign.Add(1)
		}
	})))
	if n := foreign.Load(); n > 0 {
		t.Errorf("%d events came from a goroutine other than AnalyzeNow's caller", n)
	}
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	pass, next := -1, 0 // next: registration index of the context analyzed next
	for _, ev := range col.Events() {
		switch m := ev.(type) {
		case obs.RoundStarted:
			pass, next = m.Round, 0
		case obs.WindowClosed:
			if index[m.Context] != next {
				t.Errorf("pass %d: WindowClosed of context %d arrived while context %d was analyzed", pass, index[m.Context], next)
			}
		case obs.ContextAnalyzed:
			if index[m.Context] != next {
				t.Errorf("pass %d: context %d analyzed in place %d", pass, index[m.Context], next)
			}
			next++
		case obs.RoundCompleted:
			if next != len(names) {
				t.Errorf("pass %d analyzed %d contexts, want %d", pass, next, len(names))
			}
		}
	}
	if pass < 0 {
		t.Fatal("no pass ran")
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestCloseCountsSinkFlushError pins collectionswitch_sink_flush_errors_total:
// a buffering sink whose flush fails at Close is counted once, and the other
// sinks of the same Multi still receive EngineClosed.
func TestCloseCountsSinkFlushError(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{Name: "flushfail", Sink: obs.Multi(obs.NewJSONLSink(failWriter{}), col)})
	NewListContext[int](e, WithName("flushfail:list")).NewList().Add(1)
	e.Close()
	if got := e.Metrics().SinkFlushErrors.Load(); got != 1 {
		t.Errorf("SinkFlushErrors = %d, want 1", got)
	}
	if _, ok := firstOfKind(col.Events(), obs.KindEngineClosed); !ok {
		t.Error("collector behind the failing JSONL sink got no EngineClosed")
	}
}
