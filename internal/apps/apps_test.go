package apps

import (
	"strings"
	"testing"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

func TestAllAppsRunInAllModes(t *testing.T) {
	for _, app := range All(0.05) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			var sinks []int
			for _, mode := range Modes() {
				res := Run(app, mode, core.Rtime(), 42)
				if res.Elapsed <= 0 {
					t.Errorf("%s: no time measured", mode)
				}
				if res.PeakHeapBytes == 0 {
					t.Errorf("%s: no peak heap measured", mode)
				}
				sinks = append(sinks, res.Sink)
			}
			// The mode must not change observable results: collections
			// are swapped, semantics are not.
			if sinks[0] != sinks[1] || sinks[1] != sinks[2] {
				t.Errorf("sinks differ across modes: %v", sinks)
			}
		})
	}
}

func TestAppsDeterministicAcrossRuns(t *testing.T) {
	for _, app := range All(0.05) {
		a := Run(app, ModeOriginal, core.Rtime(), 7)
		b := Run(app, ModeOriginal, core.Rtime(), 7)
		if a.Sink != b.Sink {
			t.Errorf("%s: sink differs across identical runs: %d vs %d", app.Name(), a.Sink, b.Sink)
		}
	}
}

func TestFullAdapProducesTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	// At a reasonable scale every app must trigger at least one variant
	// switch under at least one rule — the premise of Table 6.
	for _, app := range All(0.3) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			total := 0
			for _, rule := range []core.Rule{core.Rtime(), core.Ralloc()} {
				res := Run(app, ModeFullAdap, rule, 42)
				total += len(res.Transitions)
			}
			if total == 0 {
				t.Errorf("no transitions under either rule")
			}
		})
	}
}

func TestH2RtimeTransitionsCursorToAdaptiveOrHashList(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	res := Run(NewH2(0.3), ModeFullAdap, core.Rtime(), 42)
	var hit bool
	for _, tr := range res.Transitions {
		if tr.Context == "h2/IndexCursor.rows" && tr.From == collections.ArrayListID {
			if tr.To == collections.AdaptiveListID || tr.To == collections.HashArrayListID {
				hit = true
			}
		}
	}
	if !hit {
		t.Errorf("IndexCursor site never left ArrayList for a hash-capable list; transitions: %v",
			transitionsOf(res))
	}
}

func TestLusearchRtimeLeavesChainedMap(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	res := Run(NewLusearch(0.3), ModeFullAdap, core.Rtime(), 42)
	var hit bool
	for _, tr := range res.Transitions {
		if tr.From == collections.HashMapID && strings.HasPrefix(string(tr.To), "map/") &&
			tr.To != collections.HashMapID {
			hit = true
		}
	}
	if !hit {
		t.Errorf("lusearch never left the chained HashMap; transitions: %v", transitionsOf(res))
	}
}

func TestBloatRtimeLeavesLinkedList(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	res := Run(NewBloat(0.3), ModeFullAdap, core.Rtime(), 42)
	var hit bool
	for _, tr := range res.Transitions {
		if tr.From == collections.LinkedListID {
			hit = true
		}
	}
	if !hit {
		t.Errorf("bloat never left LinkedList; transitions: %v", transitionsOf(res))
	}
}

func TestAvroraRallocReducesSetMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	res := Run(NewAvrora(0.3), ModeFullAdap, core.Ralloc(), 42)
	var hit bool
	for _, tr := range res.Transitions {
		if tr.From == collections.HashSetID {
			hit = true
		}
	}
	if !hit {
		t.Errorf("avrora never left the chained HashSet under Ralloc; transitions: %v",
			transitionsOf(res))
	}
}

func transitionsOf(res Result) []string {
	out := make([]string, 0, len(res.Transitions))
	for _, tr := range res.Transitions {
		out = append(out, tr.Context+": "+string(tr.From)+" -> "+string(tr.To))
	}
	return out
}

func TestEnvSiteMemoization(t *testing.T) {
	env := NewEnv(ModeOriginal, nil, 1)
	f1 := env.ListSite("x", collections.ArrayListID)
	f2 := env.ListSite("x", collections.LinkedListID) // same name: memoized
	if env.SiteCount() != 1 {
		t.Fatalf("SiteCount = %d, want 1", env.SiteCount())
	}
	// Both factories are the same site; the first registration wins.
	if _, ok := f1().(*collections.ArrayList[int]); !ok {
		t.Fatal("factory does not honor the default variant")
	}
	if _, ok := f2().(*collections.ArrayList[int]); !ok {
		t.Fatal("memoized factory changed variant")
	}
}

func TestEnvModeWiring(t *testing.T) {
	// Original: honors declared default.
	env := NewEnv(ModeOriginal, nil, 1)
	if _, ok := env.ListSite("a", collections.LinkedListID)().(*collections.LinkedList[int]); !ok {
		t.Error("Original mode ignored default variant")
	}
	// InstanceAdap: always adaptive.
	env = NewEnv(ModeInstanceAdap, nil, 1)
	if _, ok := env.ListSite("a", collections.LinkedListID)().(*collections.AdaptiveList[int]); !ok {
		t.Error("InstanceAdap mode did not produce an adaptive list")
	}
	if _, ok := env.SetSite("s", collections.HashSetID)().(*collections.AdaptiveSet[int]); !ok {
		t.Error("InstanceAdap mode did not produce an adaptive set")
	}
	if _, ok := env.MapSite("m", collections.HashMapID)().(*collections.AdaptiveMap[int, int]); !ok {
		t.Error("InstanceAdap mode did not produce an adaptive map")
	}
}

func TestEnvEngineModeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FullAdap without engine did not panic")
		}
	}()
	NewEnv(ModeFullAdap, nil, 1)
}

func TestMeasureAppQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 measurement is slow")
	}
	row := MeasureApp(NewAvrora(0.05), 1, 3, Obs{})
	if row.App != "avrora" {
		t.Fatalf("App = %s", row.App)
	}
	if row.Sites != 2 {
		t.Fatalf("Sites = %d, want 2", row.Sites)
	}
	if len(row.Original.TimesSec) != 3 || len(row.FullTime.TimesSec) != 3 {
		t.Fatal("run counts wrong")
	}
	for _, ts := range row.Original.TimesSec {
		if ts <= 0 {
			t.Fatal("non-positive time measured")
		}
	}
}

// emptyWarmStore is a WarmStarter that knows no site.
type emptyWarmStore struct{}

func (emptyWarmStore) WarmLookup(string) (core.WarmDecision, bool) { return core.WarmDecision{}, false }

// TestObsReachesEngine pins the one engine-config path: every engine knob
// set on Obs arrives in the Config of the engine a run builds, and the
// run's own settings survive.
func TestObsReachesEngine(t *testing.T) {
	models := perfmodel.Default()
	reg := obs.NewRegistry()
	col := obs.NewCollector()
	var got core.Config
	var snaps int
	o := Obs{
		Label:       "probe",
		Sink:        col,
		Metrics:     reg,
		Parallelism: 3,
		Confidence:  0.9,
		Models:      models,
		WarmStart:   emptyWarmStore{},
		Snapshots:   func([]core.SiteSnapshot) { snaps++ },
		EngineHook:  func(e *core.Engine) { got = e.Config() },
	}
	RunObs(NewAvrora(0.02), ModeFullAdap, core.Ralloc(), 1, o)
	if got.Name != "probe" || got.Metrics != reg || got.AnalysisParallelism != 3 ||
		got.ConfidenceLevel != 0.9 || got.Models != models || got.WarmStart != (emptyWarmStore{}) {
		t.Errorf("engine config lost an Obs knob: %+v", got)
	}
	if got.Rule.Name != "Ralloc" || got.WindowSize != 100 || got.FinishedRatio != 0.6 {
		t.Errorf("run settings overridden: rule %s, window %d, finished %v", got.Rule.Name, got.WindowSize, got.FinishedRatio)
	}
	if len(col.Events()) == 0 {
		t.Error("Obs.Sink received no events")
	}
	if snaps != 1 {
		t.Errorf("Snapshots called %d times, want 1", snaps)
	}
}

func TestFormatDelta(t *testing.T) {
	if got := FormatDelta(Delta{Significant: false, ImprovementPct: 50}); got != "–" {
		t.Errorf("non-significant = %q", got)
	}
	if got := FormatDelta(Delta{Significant: true, ImprovementPct: 12.4}); got != "+12%" {
		t.Errorf("positive = %q", got)
	}
	if got := FormatDelta(Delta{Significant: true, ImprovementPct: -7.3}); got != "-7%" {
		t.Errorf("negative = %q", got)
	}
}

func TestScaled(t *testing.T) {
	if scaled(100, 0.5) != 50 {
		t.Error("scaled(100, 0.5) != 50")
	}
	if scaled(10, 0.001) != 1 {
		t.Error("scaled floor is 1")
	}
}

func TestH2UndoLogSiteStaysOnArray(t *testing.T) {
	if testing.Short() {
		t.Skip("app runs are slow")
	}
	// The undo-log site reproduces the paper's Section 2 pathology:
	// short-lived buffers that cross the adaptive threshold but receive
	// no lookups. The allocation-site analysis must keep it on ArrayList
	// (hardwired instance-level adaptation pays a wasted transition on
	// every buffer — the 12% degradation story).
	for _, rule := range []core.Rule{core.Rtime(), core.Ralloc()} {
		res := Run(NewH2(0.5), ModeFullAdap, rule, 42)
		for _, tr := range res.Transitions {
			if tr.Context == "h2/UndoLog.entries" {
				t.Errorf("%s: undo-log site switched %s -> %s", rule.Name, tr.From, tr.To)
			}
		}
	}
}

func TestRunOverheadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement is slow")
	}
	// Structural check of the Section 5.3 machinery at tiny scale (the
	// significance verdicts at this scale are not meaningful).
	cell := measureCell(NewAvrora(0.05), ModeFullAdap, core.ImpossibleRule(), 0, 3, Obs{})
	if len(cell.TimesSec) != 3 {
		t.Fatalf("measured %d runs", len(cell.TimesSec))
	}
	if len(cell.TransitionCounts) != 0 {
		t.Fatalf("impossible rule produced transitions: %v", cell.TransitionCounts)
	}
}
