package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
)

// TestTable6ReconstructibleFromTrace is the acceptance test of the -trace
// flag: running the Table 5 sweep with a JSONL sink must yield an event
// stream from which Table6FromEvents reproduces exactly the rows the
// in-process aggregation prints.
func TestTable6ReconstructibleFromTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 measurement is slow")
	}
	sc := QuickScale()
	sc.AppScale = 0.05
	sc.AppMeasured = 1
	sc.AppWarmup = 0

	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	rows := RunTable5(sc, apps.Obs{Sink: sink, Metrics: obs.NewRegistry()})
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	events, err := obs.ReadAll(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}

	want := Table6From(rows)
	got := Table6FromEvents(events)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Table 6 from events diverges from in-process aggregation:\n got %+v\nwant %+v", got, want)
	}
}

func TestSplitRunLabel(t *testing.T) {
	for _, tc := range []struct {
		label           string
		app, mode, rule string
		ok              bool
	}{
		{"avrora/fulladap/Rtime", "avrora", "fulladap", "Rtime", true},
		{"h2/instanceadap/Ralloc", "h2", "instanceadap", "Ralloc", true},
		{"fig6", "", "", "", false},
		{"", "", "", "", false},
		{"/x/y", "", "", "", false},
	} {
		app, mode, rule, ok := splitRunLabel(tc.label)
		if app != tc.app || mode != tc.mode || rule != tc.rule || ok != tc.ok {
			t.Errorf("splitRunLabel(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)",
				tc.label, app, mode, rule, ok, tc.app, tc.mode, tc.rule, tc.ok)
		}
	}
}
