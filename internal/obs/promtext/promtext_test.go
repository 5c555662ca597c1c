package promtext

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRegistryExpositionRoundTrips is the satellite acceptance test: a fully
// populated obs.Registry must render a /metrics exposition this parser
// accepts and validates — HELP/TYPE on every family, well-formed samples,
// histograms cumulative and +Inf-terminated — including hostile label
// values and the new runtime/GC gauges.
func TestRegistryExpositionRoundTrips(t *testing.T) {
	r := obs.NewRegistry()
	r.InstancesCreated.Add(1000)
	r.InstancesMonitored.Add(100)
	r.AnalysisRounds.Add(3)
	r.AnalysisLatency.Observe(0.0004)
	r.AnalysisLatency.Observe(0.012)
	r.SelfOverheadNs.Add(12_000_000)
	r.IncTransition("plain:site", "list/array", "list/hasharray")
	r.IncTransition("hostile\"site\\with\nnewline", "a", "b")
	sink := obs.CountingSink(r)
	sink.Emit(obs.Transition{})
	sink.Emit(obs.RoundStarted{})
	// Publish the runtime gauges and the GC pause histogram.
	obs.NewRuntimeSampler(r).SampleOnce()

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	fams, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse rejected the registry exposition: %v\n%s", err, buf.String())
	}
	if err := Validate(fams); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	byName := make(map[string]Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"collectionswitch_instances_created_total",
		"collectionswitch_self_overhead_ns_total",
		"collectionswitch_self_overhead_fraction",
		"collectionswitch_runtime_samples_total",
		"collectionswitch_live_heap_bytes",
		"collectionswitch_gc_cpu_fraction",
		"collectionswitch_transitions_total",
		"collectionswitch_events_total",
		"collectionswitch_analysis_round_seconds",
		"collectionswitch_gc_pause_seconds",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("exposition missing family %s", want)
		}
	}

	// The hostile label round-trips back to the original value.
	var hostileSeen bool
	for _, s := range byName["collectionswitch_transitions_total"].Samples {
		if s.Labels["context"] == "hostile\"site\\with\nnewline" {
			hostileSeen = true
		}
	}
	if !hostileSeen {
		t.Error("hostile context label did not round-trip through the exposition")
	}

	// Histograms carry real data, not just shape.
	if f := byName["collectionswitch_analysis_round_seconds"]; len(f.Samples) > 0 {
		var count float64
		for _, s := range f.Samples {
			if s.Name == f.Name+"_count" {
				count = s.Value
			}
		}
		if count != 2 {
			t.Errorf("analysis histogram count = %g, want 2", count)
		}
	}
	if f := byName["collectionswitch_gc_pause_seconds"]; f.Type != "histogram" {
		t.Errorf("gc_pause_seconds type = %q, want histogram", f.Type)
	}
}

// TestEmptyRegistryStillValid pins the no-activity shape: even before any
// engine work or sampler tick, the exposition must parse and validate (the
// GC pause histogram renders a single empty +Inf bucket).
func TestEmptyRegistryStillValid(t *testing.T) {
	var buf bytes.Buffer
	if _, err := obs.NewRegistry().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	fams, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Validate(fams); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseSampleForms(t *testing.T) {
	const text = `# HELP m one metric
# TYPE m gauge
m 1
m{a="x",b="y y"} 2.5
m{esc="q\"u\\o\nte"} +Inf
m{neg="v"} -17 1700000000
`
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 4 {
		t.Fatalf("got %+v", fams)
	}
	s := fams[0].Samples
	if s[0].Value != 1 || s[0].Labels != nil {
		t.Errorf("bare sample = %+v", s[0])
	}
	if s[1].Labels["b"] != "y y" {
		t.Errorf("labels = %+v", s[1].Labels)
	}
	if got := s[2].Labels["esc"]; got != "q\"u\\o\nte" {
		t.Errorf("escaped label decoded to %q", got)
	}
	if !math.IsInf(s[2].Value, 1) {
		t.Errorf("value = %g, want +Inf", s[2].Value)
	}
	if s[3].Value != -17 {
		t.Errorf("timestamped sample value = %g", s[3].Value)
	}
}

func TestParseRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"sample without meta":  "m 1\n",
		"missing TYPE":         "# HELP m x\nm 1\n",
		"missing HELP":         "# TYPE m gauge\nm 1\n",
		"duplicate HELP":       "# HELP m x\n# HELP m y\n# TYPE m gauge\nm 1\n",
		"duplicate TYPE":       "# HELP m x\n# TYPE m gauge\n# TYPE m counter\nm 1\n",
		"unknown TYPE":         "# HELP m x\n# TYPE m banana\nm 1\n",
		"TYPE after samples":   "# HELP m x\n# TYPE m gauge\nm 1\n# TYPE m gauge\n",
		"bad escape":           "# HELP m x\n# TYPE m gauge\nm{l=\"a\\tb\"} 1\n",
		"unterminated quote":   "# HELP m x\n# TYPE m gauge\nm{l=\"a} 1\n",
		"unquoted label value": "# HELP m x\n# TYPE m gauge\nm{l=a} 1\n",
		"bad value":            "# HELP m x\n# TYPE m gauge\nm wat\n",
		"duplicate label":      "# HELP m x\n# TYPE m gauge\nm{a=\"1\",a=\"2\"} 1\n",
		"bad metric name":      "# HELP m x\n# TYPE m gauge\n9m 1\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, text)
		}
	}
}

func TestValidateHistogram(t *testing.T) {
	good := `# HELP h x
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 4
h_sum 2.2
h_count 4
`
	fams, err := Parse(strings.NewReader(good))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Validate(fams); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}

	bad := map[string]string{
		"no +Inf bucket": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 3
h_sum 1
h_count 3
`,
		"non-cumulative": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 2
h_sum 1
h_count 2
`,
		"Inf != count": `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_sum 1
h_count 3
`,
		"bucket without le": `# HELP h x
# TYPE h histogram
h_bucket{wat="1"} 2
h_sum 1
h_count 2
`,
		"missing sum": `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_count 2
`,
	}
	for name, text := range bad {
		fams, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if err := Validate(fams); err == nil {
			t.Errorf("%s: Validate accepted a broken histogram", name)
		}
	}
}

// Guard against accidental time-dependence: two immediate renders of the
// same registry parse to the same family set (values like the self-overhead
// fraction may differ, the structure must not).
func TestExpositionStructureStable(t *testing.T) {
	r := obs.NewRegistry()
	r.IncTransition("s", "a", "b")
	parseNames := func() []string {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		fams, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		names := make([]string, len(fams))
		for i, f := range fams {
			names[i] = f.Name
		}
		return names
	}
	a := parseNames()
	time.Sleep(2 * time.Millisecond)
	b := parseNames()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("family set changed between renders:\n%v\n%v", a, b)
	}
}

// FuzzPromtextParse feeds arbitrary bytes to Parse, seeded with a rendered
// registry. Parse must return an error or families, never panic, and what
// it accepts must keep its guarantees: each family has a valid name and
// appears once, every family holding samples has HELP and TYPE, and each
// sample belongs to its family's name. Validate must not panic on them.
func FuzzPromtextParse(f *testing.F) {
	r := obs.NewRegistry()
	r.InstancesCreated.Add(7)
	r.AnalysisLatency.Observe(0.002)
	r.IncTransition("site\"with\\escapes\n", "list/array", "list/hasharray")
	obs.NewRuntimeSampler(r).SampleOnce()
	var rendered bytes.Buffer
	if _, err := r.WriteTo(&rendered); err != nil {
		f.Fatal(err)
	}
	f.Add(rendered.Bytes())
	for _, seed := range []string{
		"# HELP x_total a counter\n# TYPE x_total counter\nx_total{a=\"1\",b=\"\\\\\"} 3 1700000000\n",
		"# HELP h a histogram\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum NaN\nh_count 2\n",
		"# TYPE x gauge\nx 1\n",
		"x{a=\"unterminated} 1\n",
		"# HELP x h\n# TYPE x gauge\nx{a=\"\\q\"} -Inf\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(fams))
		for _, fam := range fams {
			if !validMetricName(fam.Name) || seen[fam.Name] {
				t.Fatalf("accepted family name %q (seen before: %v)", fam.Name, seen[fam.Name])
			}
			seen[fam.Name] = true
			if len(fam.Samples) > 0 && (fam.Help == "" || fam.Type == "") {
				t.Fatalf("family %q holds samples without %s", fam.Name, missingMeta(fam))
			}
			for _, s := range fam.Samples {
				if familyName(s.Name) != fam.Name {
					t.Fatalf("sample %q filed under family %q", s.Name, fam.Name)
				}
			}
		}
		_ = Validate(fams)
	})
}
