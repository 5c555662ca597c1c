package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// goldenChurn creates n collections through newC, applies one seeded
// workload to each and drops them all, then forces a collection so their
// weak references clear. Sizes are drawn from [minSize, maxSize].
func goldenChurn[C any](rng *rand.Rand, n, minSize, maxSize, lookups int, newC func() C, add func(C, int), look func(C, int)) {
	for i := 0; i < n; i++ {
		c := newC()
		size := minSize + rng.Intn(maxSize-minSize+1)
		for j := 0; j < size; j++ {
			add(c, j)
		}
		for j := 0; j < lookups+rng.Intn(lookups/4+1); j++ {
			look(c, j%(size+1))
		}
	}
	runtime.GC()
}

// explainGoldenRun drives one engine's list, set and map contexts through
// windows that switch, hold and meet the adaptive-variant size gate, plus
// the waiting outcomes in between, and returns every site's Explain with the
// timestamps zeroed.
func explainGoldenRun(t *testing.T, cfg Config, seed int64) map[string][]DecisionRecord {
	t.Helper()
	cfg.WindowSize = 10
	cfg.FinishedRatio = 0.6
	cfg.CooldownWindows = 1
	e := NewEngineManual(cfg)
	defer e.Close()
	rng := rand.New(rand.NewSource(seed))
	lists := NewListContext[int](e, WithName("golden:list"))
	sets := NewSetContext[int](e, WithName("golden:set"))
	maps := NewMapContext[int, int](e, WithName("golden:map"))
	churnList := func(n, lo, hi, lookups int) {
		goldenChurn(rng, n, lo, hi, lookups, lists.NewList,
			func(l collections.List[int], v int) { l.Add(v) },
			func(l collections.List[int], v int) { l.Contains(v) })
	}
	churnSet := func(n, lo, hi, lookups int) {
		goldenChurn(rng, n, lo, hi, lookups, sets.NewSet,
			func(s collections.Set[int], v int) { s.Add(v) },
			func(s collections.Set[int], v int) { s.Contains(v) })
	}
	churnMap := func(n, lo, hi, lookups int) {
		goldenChurn(rng, n, lo, hi, lookups, maps.NewMap,
			func(m collections.Map[int, int], v int) { m.Put(v, v) },
			func(m collections.Map[int, int], v int) { m.Get(v) })
	}
	// Half a window: window_filling.
	churnList(5, 400, 600, 400)
	churnSet(5, 2, 200, 300)
	churnMap(5, 5, 20, 10)
	e.AnalyzeNow()
	// A full window whose instances stay alive: awaiting_finished.
	var live []any
	for i := 0; i < 5; i++ {
		live = append(live, lists.NewList(), sets.NewSet(), maps.NewMap())
	}
	runtime.GC()
	e.AnalyzeNow()
	runtime.KeepAlive(live)
	live = nil
	runtime.GC()
	// The first windows close: lookup-heavy large lists, sets of widely
	// ranging sizes (the adaptive variant passes its size gate), small maps.
	e.AnalyzeNow()
	// Cooldown: the next WindowSize creations go unmonitored.
	churnList(4, 10, 20, 5)
	churnSet(4, 10, 20, 5)
	churnMap(4, 10, 20, 5)
	e.AnalyzeNow()
	churnList(6, 10, 20, 5)
	churnSet(6, 10, 20, 5)
	churnMap(6, 10, 20, 5)
	// Second windows: small lists, sets of one narrow size band (the
	// adaptive variant fails its gate), lookup-heavy large maps.
	churnList(10, 5, 30, 20)
	churnSet(10, 60, 70, 200)
	churnMap(10, 300, 500, 2000)
	e.AnalyzeNow()
	out := make(map[string][]DecisionRecord)
	for _, site := range []string{"golden:list", "golden:set", "golden:map"} {
		recs := e.Explain(site)
		for i := range recs {
			recs[i].When = time.Time{}
		}
		out[site] = recs
	}
	return out
}

// explainGoldenModels is the default model set with measured overlays that
// give the set candidates' time curves a wide standard error, so a
// confidence-armed engine sees intervals overlap where point estimates
// would switch.
func explainGoldenModels() *perfmodel.Models {
	m := perfmodel.Default().Clone()
	for _, v := range setCandidates() {
		for _, op := range []perfmodel.Op{perfmodel.OpPopulate, perfmodel.OpContains} {
			base := m.Cost(v, op, perfmodel.DimTimeNS, 100)
			m.OverlayMeasured(v, op, perfmodel.DimTimeNS, []perfmodel.MeasuredPoint{
				{Size: 2, Value: base * 0.8, SE: 0.4 * base},
				{Size: 100, Value: base, SE: 0.5 * base},
				{Size: 400, Value: base * 1.2, SE: 0.6 * base},
			})
		}
	}
	return m
}

// TestExplainMatchesParentGolden pins the Explain output — every decision
// record, candidate estimate, ratio, reason and margin — of three seeded
// manual engines to a golden file: Rtime and Ralloc on point estimates, and
// Rtime confidence-armed at 0.95. Any change
// to how or when explanations are built must leave these bytes alone. On a
// mismatch the test writes this tree's output to a temporary file and names
// it; copy that over the golden only for an intended change to explain
// output.
func TestExplainMatchesParentGolden(t *testing.T) {
	got, err := json.MarshalIndent(map[string]map[string][]DecisionRecord{
		"point": explainGoldenRun(t, Config{Rule: Rtime(), Name: "golden/point"}, 11),
		"alloc": explainGoldenRun(t, Config{Rule: Ralloc(), Name: "golden/alloc"}, 13),
		"ci":    explainGoldenRun(t, Config{Rule: Rtime(), Name: "golden/ci", ConfidenceLevel: 0.95, Models: explainGoldenModels()}, 12),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "explain_golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if f, err := os.CreateTemp("", "explain_golden-*.json"); err == nil {
		_, err = f.Write(got)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			t.Errorf("this tree's Explain output is in %s", f.Name())
		}
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("Explain diverges from the golden at line %d:\n got  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("Explain output has %d lines, the golden %d", len(gl), len(wl))
}
