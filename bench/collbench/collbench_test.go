package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCatalogue checks BENCHMARK.json against its limits and
// against the metrics the benchmark measures.
func TestSpecMatchesCatalogue(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the benchmark runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	names := func(kind string, got []metricDef, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g != (metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("metric name %q is malformed or repeated", g.Name)
			}
			seen[g.Name] = true
			if !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("metric %s: unit %q or direction %q is malformed", g.Name, g.Unit, g.Better)
			}
		}
	}
	// A bound is at most a tenth of the parent's median. Set-up time, where
	// work moved out of the measured loop shows, has no tighter bound than any
	// other metric.
	var e2e, layer []metricDef
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.10 {
			t.Errorf("metric %s: bound must be in (0, 0.10]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s's bound %g is below another metric's %g", setupBound, maxBound)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	names("end-to-end", e2e, endToEnd)
	names("per-layer", layer, perLayer)

	// Every layer metric names an end-to-end metric and a workload it moves.
	for _, d := range perLayer {
		okMetric, okWorkload := false, strings.Contains(d.Moves, "every workload")
		for _, e := range endToEnd {
			okMetric = okMetric || strings.Contains(d.Moves, e.Name)
		}
		for _, w := range workloadNames {
			okWorkload = okWorkload || strings.Contains(d.Moves, w)
		}
		if !okMetric || !okWorkload {
			t.Errorf("per-layer %s: %q does not name the end-to-end metric and workload it moves", d.Name, d.Moves)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, through the
// built command, and checks its last line, its names and its trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	s := loadSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "collbench")
	for _, pkg := range []string{".", "../collecho"} {
		build := exec.Command("go", "build", "-buildvcs=false", "-o", dir, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "run", "--workload", w, "--seed", "2", "--quick", "--trace", trace, "--spans", dir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var line struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || len(last) != 4 {
					t.Fatalf("last line %s: want exactly correct, attempted, failed, metrics (%v)", lines[len(lines)-1], err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: printed %+v, want unit %s", name, got, unit)
					}
				}
				if trace == "1" {
					checkSpans(t, filepath.Join(dir, w+"-seed2.jsonl"), strings.HasPrefix(w, "service"))
				}
			})
		}
	}
}

// checkSpans checks that every span lies inside its parent and, for the
// service, that every server span hangs under a client span of its trace.
func checkSpans(t *testing.T, path string, service bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	servers := 0
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) is outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Layer == "service" {
			servers++
			if p.Layer != "http" || p.Trace != s.Trace {
				t.Errorf("server span %d is not under a client span of its trace", s.ID)
			}
		}
	}
	if service && servers == 0 {
		t.Errorf("no server spans in %s", path)
	}
	if len(spans) == 0 {
		t.Errorf("no spans in %s", path)
	}
}

// TestSummaryQuartiles pins compare's quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestSummaryQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
	} {
		med, q1, q3 := summary(c.xs)
		if med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("summary(%v) = %v %v %v, want %v %v %v", c.xs, med, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, overlapping or not.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},
		{ID: 4, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self[1] != 60 || self[2] != 20 || self[4] != 30 {
		t.Errorf("self times %v, want 1:60 2:20 4:30", self)
	}
}
