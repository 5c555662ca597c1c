package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PrintTable2 renders the collection-variant inventory (paper Table 2).
func PrintTable2(w io.Writer) {
	header(w, "Table 2 — collection implementations considered as variants")
	fmt.Fprintf(w, "%-12s %-24s %-24s %s\n", "Abstraction", "Variant", "Analogue of", "Description")
	for _, info := range collections.AllVariantInfos() {
		fmt.Fprintf(w, "%-12s %-24s %-24s %s\n",
			info.Abstraction, info.ID, info.Analogue, info.Description)
	}
	fmt.Fprintln(w, "\nFuture-work extensions (paper Section 7: sorted and concurrent variants):")
	for _, info := range collections.ExtensionVariantInfos() {
		fmt.Fprintf(w, "%-12s %-24s %-24s %s\n",
			info.Abstraction, info.ID, info.Analogue, info.Description)
	}
}

// PrintTable4 renders the selection rules (paper Table 4).
func PrintTable4(w io.Writer) {
	header(w, "Table 4 — selection rules")
	fmt.Fprintf(w, "%-8s %-24s %s\n", "Rule", "Improvement", "Penalty")
	fmt.Fprintf(w, "%-8s %-24s %s\n", "Rtime", "Time cost < 0.8", "–")
	fmt.Fprintf(w, "%-8s %-24s %s\n", "Ralloc", "Alloc cost < 0.8", "Time cost < 1.2")
	fmt.Fprintln(w, "\nMachine-readable forms:")
	for _, r := range []core.Rule{core.Rtime(), core.Ralloc(), core.Rfootprint(), core.ImpossibleRule()} {
		fmt.Fprintf(w, "  %s\n", r)
	}
}

// RunTable5 measures the DaCapo-substitute applications, with o
// configuring every measured run's engine.
func RunTable5(sc Scale, o apps.Obs) []apps.Row {
	return apps.MeasureAll(sc.AppScale, sc.AppWarmup, sc.AppMeasured, o)
}

// PrintTable5 renders the application results in the paper's layout.
func PrintTable5(w io.Writer, rows []apps.Row) {
	header(w, "Table 5 — results on the DaCapo-substitute applications")
	fmt.Fprintf(w, "%-10s %7s | %9s %9s | %7s %7s | %7s %7s | %7s %7s\n",
		"Bench", "#Sites", "T(s)", "M(MB)",
		"T1", "M1", "T2", "M2", "T3", "M3")
	fmt.Fprintf(w, "%-10s %7s | %9s %9s | %15s | %15s | %15s\n",
		"", "", "Original", "", "FullAdap Rtime", "FullAdap Ralloc", "InstanceAdap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d | %9.3f %9.1f | %7s %7s | %7s %7s | %7s %7s\n",
			r.App, r.Sites,
			stats.Mean(r.Original.TimesSec), stats.Mean(r.Original.PeaksMB),
			apps.FormatDelta(r.T1), apps.FormatDelta(r.M1),
			apps.FormatDelta(r.T2), apps.FormatDelta(r.M2),
			apps.FormatDelta(r.T3), apps.FormatDelta(r.M3))
	}
	fmt.Fprintln(w, "(positive deltas are improvements; – means not significant by Tukey HSD)")
}

// TransitionRow summarizes one app's most common transition under a rule —
// the paper's Table 6.
type TransitionRow struct {
	App    string
	Rtime  string
	Ralloc string
}

// Table6From extracts the most frequent transition per app and rule from
// Table 5 measurement rows.
func Table6From(rows []apps.Row) []TransitionRow {
	out := make([]TransitionRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, TransitionRow{
			App:    r.App,
			Rtime:  topTransition(r.FullTime.TransitionCounts),
			Ralloc: topTransition(r.FullAlloc.TransitionCounts),
		})
	}
	return out
}

// topTransition returns the most frequent transition key ("(none)" when the
// log is empty). Ties break lexicographically for determinism.
func topTransition(counts map[string]int) string {
	if len(counts) == 0 {
		return "(none)"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := keys[0]
	for _, k := range keys[1:] {
		if counts[k] > counts[best] {
			best = k
		}
	}
	return best
}

// Table6FromEvents rebuilds the Table 6 aggregation purely from a
// structured event stream — e.g. one decoded from a -trace JSONL file with
// obs.ReadAll. Engines in the Table 5 machinery are labeled "app/mode/rule";
// the FullAdap cells' Transition events carry everything the in-process
// aggregation uses, so this reconstructs exactly the rows Table6From prints.
func Table6FromEvents(events []obs.Event) []TransitionRow {
	type cellKey struct{ app, rule string }
	counts := make(map[cellKey]map[string]int)
	var appOrder []string
	seen := make(map[string]bool)
	for _, ev := range events {
		app, mode, rule, ok := splitRunLabel(ev.EngineName())
		if !ok || mode != string(apps.ModeFullAdap) {
			continue
		}
		if !seen[app] {
			seen[app] = true
			appOrder = append(appOrder, app)
		}
		t, isTransition := ev.(obs.Transition)
		if !isTransition {
			continue
		}
		k := cellKey{app: app, rule: rule}
		if counts[k] == nil {
			counts[k] = make(map[string]int)
		}
		counts[k][fmt.Sprintf("%s: %s -> %s", t.Context, t.From, t.To)]++
	}
	out := make([]TransitionRow, 0, len(appOrder))
	for _, app := range appOrder {
		out = append(out, TransitionRow{
			App:    app,
			Rtime:  topTransition(counts[cellKey{app: app, rule: "Rtime"}]),
			Ralloc: topTransition(counts[cellKey{app: app, rule: "Ralloc"}]),
		})
	}
	return out
}

// splitRunLabel parses the "app/mode/rule" engine labels of the Table 5
// machinery.
func splitRunLabel(label string) (app, mode, rule string, ok bool) {
	parts := strings.SplitN(label, "/", 3)
	if len(parts) != 3 || parts[0] == "" {
		return "", "", "", false
	}
	return parts[0], parts[1], parts[2], true
}

// PrintTable6 renders the most common transitions.
func PrintTable6(w io.Writer, rows []TransitionRow) {
	header(w, "Table 6 — most commonly performed transitions")
	fmt.Fprintf(w, "%-10s | %-55s | %s\n", "Benchmark", "Rtime", "Ralloc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %-55s | %s\n", r.App, r.Rtime, r.Ralloc)
	}
}

// OverheadRow is one application of the Section 5.3 overhead experiment:
// the framework runs with monitoring enabled but an impossible rule, so any
// significant time difference is pure framework overhead.
type OverheadRow struct {
	App          string
	OriginalSec  []float64
	DisabledSec  []float64 // FullAdap with ImpossibleRule
	Significant  bool
	RelChangePct float64
}

// RunOverhead measures the Section 5.3 framework-overhead experiment, with
// o configuring the measured FullAdap runs' engines. The warm-start store
// is left out both ways: a restored
// variant would make the monitored run differ from the original by more
// than the framework's overhead, and the impossible rule's site states
// must not overwrite the stored decisions.
func RunOverhead(sc Scale, o apps.Obs) []OverheadRow {
	o.WarmStart, o.Snapshots = nil, nil
	var out []OverheadRow
	for _, app := range apps.All(sc.AppScale) {
		row := OverheadRow{App: app.Name()}
		for i := 0; i < sc.AppWarmup; i++ {
			apps.Run(app, apps.ModeOriginal, core.Rtime(), 1)
			apps.Run(app, apps.ModeFullAdap, core.ImpossibleRule(), 1)
		}
		o.Label = fmt.Sprintf("%s/%s/%s", app.Name(), apps.ModeFullAdap, core.ImpossibleRule().Name)
		for i := 0; i < sc.AppMeasured; i++ {
			orig := apps.Run(app, apps.ModeOriginal, core.Rtime(), 1)
			dis := apps.RunObs(app, apps.ModeFullAdap, core.ImpossibleRule(), 1, o)
			row.OriginalSec = append(row.OriginalSec, orig.Elapsed.Seconds())
			row.DisabledSec = append(row.DisabledSec, dis.Elapsed.Seconds())
		}
		sig, rel := stats.SignificantDiff(row.OriginalSec, row.DisabledSec)
		row.Significant = sig
		row.RelChangePct = rel * 100
		out = append(out, row)
	}
	return out
}

// PrintOverhead renders the Section 5.3 results.
func PrintOverhead(w io.Writer, rows []OverheadRow) {
	header(w, "Section 5.3 — framework overhead (impossible rule, no switches)")
	fmt.Fprintf(w, "%-10s %12s %12s %14s %s\n",
		"Bench", "orig (s)", "w/ framework", "change", "significant?")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.3f %12.3f %+13.1f%% %v\n",
			r.App, stats.Mean(r.OriginalSec), stats.Mean(r.DisabledSec),
			r.RelChangePct, r.Significant)
	}
	fmt.Fprintln(w, "(paper: no significant difference on any benchmark)")
}
