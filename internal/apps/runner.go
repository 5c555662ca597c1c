package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// This file is the Table 5 experiment machinery: repeated application runs
// per mode and rule, significance-tested against the original run with the
// Tukey HSD test, exactly as the paper's methodology prescribes (35 runs, 5
// discarded as warm-up; reduced run counts are supported for benches).

// Cell is one measured configuration of Table 5.
type Cell struct {
	TimesSec []float64 // elapsed seconds per measured run
	PeaksMB  []float64 // peak heap MB per measured run
	// TransitionCounts aggregates From->To switch counts over all runs
	// (FullAdap only) — the Table 6 input.
	TransitionCounts map[string]int
	// Sites is the number of target allocation sites touched.
	Sites int
}

// Delta is a significance-tested comparison against the original run.
// Following Table 5's convention, positive percentages are improvements.
type Delta struct {
	Significant bool
	// ImprovementPct is the relative gain versus the original run
	// (positive = better, i.e. less time / less memory).
	ImprovementPct float64
}

// Row is one application row of Table 5.
type Row struct {
	App      string
	Sites    int
	Original Cell
	// FullAdap measurements under Rtime and Ralloc, and InstanceAdap.
	FullTime  Cell
	FullAlloc Cell
	Instance  Cell

	// Deltas versus Original: T1/M1 (Rtime), T2/M2 (Ralloc), T3/M3
	// (InstanceAdap), matching the Table 5 column naming.
	T1, M1, T2, M2, T3, M3 Delta
}

// measureCell runs app measured times, after warmup discarded runs, in the
// given mode and aggregates the measurements. Every run uses workload seed
// 1. Only the measured runs get o's wiring, labeled "app/mode/rule", so an
// exported trace reconstructs exactly what the printed tables aggregated.
func measureCell(app App, mode Mode, rule core.Rule, warmup, measured int, o Obs) Cell {
	cell := Cell{TransitionCounts: make(map[string]int)}
	for i := 0; i < warmup; i++ {
		Run(app, mode, rule, 1)
	}
	o.Label = fmt.Sprintf("%s/%s/%s", app.Name(), mode, rule.Name)
	for i := 0; i < measured; i++ {
		res := RunObs(app, mode, rule, 1, o)
		cell.TimesSec = append(cell.TimesSec, res.Elapsed.Seconds())
		cell.PeaksMB = append(cell.PeaksMB, float64(res.PeakHeapBytes)/(1024*1024))
		for _, tr := range res.Transitions {
			key := fmt.Sprintf("%s: %s -> %s", tr.Context, tr.From, tr.To)
			cell.TransitionCounts[key]++
		}
	}
	return cell
}

// delta compares a cell against the original: improvements are positive.
func delta(original, modified []float64) Delta {
	sig, rel := stats.SignificantDiff(original, modified)
	return Delta{Significant: sig, ImprovementPct: -rel * 100}
}

// MeasureApp produces one Table 5 row for app: warmup discarded and
// measured kept runs per cell (the paper uses 5 and 30), with o configuring
// the measured runs' engines.
func MeasureApp(app App, warmup, measured int, o Obs) Row {
	row := Row{App: app.Name()}
	row.Original = measureCell(app, ModeOriginal, core.Rtime(), warmup, measured, o)
	row.FullTime = measureCell(app, ModeFullAdap, core.Rtime(), warmup, measured, o)
	row.FullAlloc = measureCell(app, ModeFullAdap, core.Ralloc(), warmup, measured, o)
	row.Instance = measureCell(app, ModeInstanceAdap, core.Rtime(), warmup, measured, o)

	// Count sites from a probe run.
	env := NewEnv(ModeOriginal, nil, 1)
	app.Run(env)
	row.Sites = env.SiteCount()

	row.T1 = delta(row.Original.TimesSec, row.FullTime.TimesSec)
	row.M1 = delta(row.Original.PeaksMB, row.FullTime.PeaksMB)
	row.T2 = delta(row.Original.TimesSec, row.FullAlloc.TimesSec)
	row.M2 = delta(row.Original.PeaksMB, row.FullAlloc.PeaksMB)
	row.T3 = delta(row.Original.TimesSec, row.Instance.TimesSec)
	row.M3 = delta(row.Original.PeaksMB, row.Instance.PeaksMB)
	return row
}

// MeasureAll produces the full Table 5 for every application at the given
// workload scale (1.0 = full experiment).
func MeasureAll(scale float64, warmup, measured int, o Obs) []Row {
	var rows []Row
	for _, app := range All(scale) {
		rows = append(rows, MeasureApp(app, warmup, measured, o))
	}
	return rows
}

// FormatDelta renders a Delta in Table 5 style: "–" for non-significant,
// signed percentage otherwise.
func FormatDelta(d Delta) string {
	if !d.Significant {
		return "–"
	}
	return fmt.Sprintf("%+.0f%%", d.ImprovementPct)
}
