package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/perfmodel"
)

func TestThresholdAnalysisShape(t *testing.T) {
	results := RunThresholdAnalysis(5)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 adaptive types", len(results))
	}
	for _, res := range results {
		if len(res.Points) == 0 {
			t.Fatalf("%s: no points", res.Collection)
		}
		if res.Threshold < 20 || res.Threshold > 600 {
			t.Errorf("%s: threshold %d outside the swept range", res.Collection, res.Threshold)
		}
		// The benefit must be positive at the largest measured size:
		// linear scans always lose eventually.
		last := res.Points[len(res.Points)-1]
		if last.BenefitNs <= 0 {
			t.Errorf("%s: benefit still negative at size %d (%f ns)",
				res.Collection, last.Size, last.BenefitNs)
		}
	}
	var buf bytes.Buffer
	PrintThresholds(&buf, results)
	for _, want := range []string{"AdaptiveList", "AdaptiveSet", "AdaptiveMap", "Threshold"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("threshold report missing %q", want)
		}
	}
}

func TestFig5QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 sweep is slow")
	}
	sc := QuickScale()
	sc.Fig5Sizes = []int{300, 800}
	sc.Fig5Instances = 3000
	panels := RunFig5(sc, apps.Obs{})
	if len(panels) != 5 {
		t.Fatalf("got %d panels, want 5", len(panels))
	}
	for _, p := range panels {
		if len(p.Points) != 2 {
			t.Fatalf("%s: %d points", p.Name, len(p.Points))
		}
	}
	// Panel a at size 800: CollectionSwitch must have switched off
	// ArrayList and beat the baseline on time.
	a := panels[0].Points[1]
	if a.SelectedVariant == "" {
		t.Errorf("5a@800: never switched off ArrayList")
	}
	if a.SwitchTime >= a.BaselineTime {
		t.Errorf("5a@800: Switch %.4fs not faster than ArrayList %.4fs",
			a.SwitchTime, a.BaselineTime)
	}
	// Panel d: the Ralloc run must allocate less than the chained
	// baseline at both sizes.
	for _, p := range panels[3].Points {
		if p.SwitchAlloc >= p.BaselineAlloc {
			t.Errorf("5d@%d: Switch alloc %d not below baseline %d",
				p.Size, p.SwitchAlloc, p.BaselineAlloc)
		}
	}
	var buf bytes.Buffer
	PrintFig5(&buf, panels)
	if !strings.Contains(buf.String(), "Figure 5a") {
		t.Error("fig5 report missing panel header")
	}
}

func TestFig6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweep is slow")
	}
	sc := QuickScale()
	sc.Fig6Instances = 2000
	sc.Fig6Reps = 2
	res := RunFig6(sc, apps.Obs{})
	if len(res.Iterations) != 10 { // 5 phases x 2 reps
		t.Fatalf("got %d iterations, want 10", len(res.Iterations))
	}
	// In the contains phases the LinkedList must be the slowest fixed
	// variant (sanity of the harness itself).
	first := res.Iterations[1]
	if first.LinkedList < first.ArrayList {
		t.Errorf("contains phase: LinkedList %.2fms faster than ArrayList %.2fms",
			first.LinkedList, first.ArrayList)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, res)
	if !strings.Contains(buf.String(), "search and remove") {
		t.Error("fig6 report missing phases")
	}
}

func TestFig7FlatOverhead(t *testing.T) {
	points := RunFig7(perfmodel.Default())
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	small := points[0].OverheadNs
	large := points[len(points)-1].OverheadNs
	if small <= 0 {
		t.Fatal("zero overhead measured")
	}
	// The decision step must not scale with window size: allow generous
	// noise but reject linear growth (1000x window -> <10x time).
	if large > 10*small+200 {
		t.Errorf("overhead grows with window size: %0.f ns @100 vs %0.f ns @100k", small, large)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, points)
	if !strings.Contains(buf.String(), "window") {
		t.Error("fig7 report malformed")
	}
}

func TestTable2PrintsAllVariants(t *testing.T) {
	var buf bytes.Buffer
	PrintTable2(&buf)
	for _, info := range collections.AllVariantInfos() {
		if !strings.Contains(buf.String(), string(info.ID)) {
			t.Errorf("table 2 missing %s", info.ID)
		}
	}
}

func TestTable4Prints(t *testing.T) {
	var buf bytes.Buffer
	PrintTable4(&buf)
	for _, want := range []string{"Rtime", "Ralloc", "Time cost < 0.8", "alloc-b<0.80"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 4 missing %q", want)
		}
	}
}

func TestTable5And6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 measurement is slow")
	}
	sc := QuickScale()
	sc.AppScale = 0.05
	sc.AppMeasured = 3
	sc.AppWarmup = 0
	rows := RunTable5(sc, apps.Obs{})
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5 applications", len(rows))
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	for _, app := range []string{"avrora", "bloat", "fop", "h2", "lusearch"} {
		if !strings.Contains(buf.String(), app) {
			t.Errorf("table 5 missing %s", app)
		}
	}
	t6 := Table6From(rows)
	if len(t6) != 5 {
		t.Fatalf("table 6 rows = %d", len(t6))
	}
	buf.Reset()
	PrintTable6(&buf, t6)
	if !strings.Contains(buf.String(), "Rtime") {
		t.Error("table 6 malformed")
	}
}

func TestScalesSane(t *testing.T) {
	full := FullScale()
	if full.Fig5Instances != 100000 || full.AppMeasured != 30 || full.AppWarmup != 5 {
		t.Errorf("full scale does not match the paper: %+v", full)
	}
	if full.Fig5Sizes[0] != 100 || full.Fig5Sizes[len(full.Fig5Sizes)-1] != 1000 {
		t.Errorf("full sweep sizes wrong: %v", full.Fig5Sizes)
	}
	quick := QuickScale()
	if quick.Fig5Instances >= full.Fig5Instances {
		t.Error("quick scale not smaller than full")
	}
}

func TestTopTransition(t *testing.T) {
	if got := topTransition(nil); got != "(none)" {
		t.Errorf("empty = %q", got)
	}
	counts := map[string]int{"a": 2, "b": 5, "c": 1}
	if got := topTransition(counts); got != "b" {
		t.Errorf("top = %q, want b", got)
	}
	// Deterministic tie-break.
	tie := map[string]int{"z": 3, "a": 3}
	if got := topTransition(tie); got != "a" {
		t.Errorf("tie = %q, want a", got)
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs are slow")
	}
	sc := QuickScale()
	sc.Fig5Instances = 1500
	res := RunAblation(sc)
	if len(res.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	// The paper-default configuration (window 100, ratio 0.6, cubic
	// models) must reach the expected switch.
	for _, c := range res.Cells {
		if (c.Knob == "window-size" && c.Value == "100") ||
			(c.Knob == "finished-ratio" && c.Value == "0.6") ||
			(c.Knob == "model-degree" && c.Value == "3") {
			if !c.Switched {
				t.Errorf("%s=%s did not switch", c.Knob, c.Value)
			}
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, res)
	if !strings.Contains(buf.String(), "window-size") {
		t.Error("ablation report malformed")
	}
}

func TestTable2IncludesExtensions(t *testing.T) {
	var buf bytes.Buffer
	PrintTable2(&buf)
	for _, info := range collections.ExtensionVariantInfos() {
		if !strings.Contains(buf.String(), string(info.ID)) {
			t.Errorf("table 2 missing extension %s", info.ID)
		}
	}
}
