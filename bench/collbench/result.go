package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"repro/internal/stats"
)

// row is one reported metric: its value and, where the value summarizes a
// series (passes, seconds, requests, probe rounds), the series' size, median
// and quartiles. Note carries the base of a ratio or the sample source.
type row struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	N      int      `json:"n"`
	Median *float64 `json:"median,omitempty"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	Note   string   `json:"note,omitempty"`
}

// result is everything one workload run measured. A workload child prints it
// as its last stdout line; run -out keeps it for compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   []row             `json:"metrics"`
	Detail    []row             `json:"detail,omitempty"`
	Variants  map[string]string `json:"variants,omitempty"`
	Host      host              `json:"host"`
}

// host records where a result was measured.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// check counts one output checked against its reference.
func (r *result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// seriesRow summarizes xs: value is the series median unless the caller
// passes a different summary (a mean, a ratio of medians) as value.
func seriesRow(name, unit string, xs []float64, value float64) row {
	r := row{Name: name, Unit: unit, Value: value, N: len(xs)}
	if len(xs) > 0 {
		med, q1, q3 := stats.Median(xs), stats.Percentile(xs, 25), stats.Percentile(xs, 75)
		r.Median, r.Q1, r.Q3 = &med, &q1, &q3
	}
	return r
}

// medianRow is seriesRow valued at the series median.
func medianRow(name, unit string, xs []float64) row {
	return seriesRow(name, unit, xs, stats.Median(xs))
}

// scalarRow is a value without a series behind it (a count, a ratio).
func scalarRow(name, unit string, v float64, n int) row {
	return row{Name: name, Unit: unit, Value: v, N: n}
}

// ratio divides, reading 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ordered returns the rows named by defs, in catalogue order, with the
// catalogue's units. A missing or non-finite metric is a bug in the
// workload code and fails the run.
func ordered(defs []metricDef, rows []row) ([]row, error) {
	byName := make(map[string]row, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	out := make([]row, 0, len(defs))
	for _, d := range defs {
		r, ok := byName[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		r.Unit = d.Unit
		out = append(out, r)
	}
	return out, nil
}

// printTable writes the human-readable rows of one result.
func printTable(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s  correct=%v attempted=%d failed=%d failed_ratio=%g  (cpus=%d %s)\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Correct, r.Attempted, r.Failed,
		ratio(float64(r.Failed), float64(r.Attempted)), r.Host.CPUs, r.Host.Go)
	for _, rows := range [][]row{r.Metrics, r.Detail} {
		for _, m := range rows {
			fmt.Fprintf(w, "%-14s %-34s %14.6g %-8s n=%-7d", r.Workload, m.Name, m.Value, m.Unit, m.N)
			if m.Median != nil {
				fmt.Fprintf(w, " median=%.6g q1=%.6g q3=%.6g", *m.Median, *m.Q1, *m.Q3)
			}
			if m.Note != "" {
				fmt.Fprintf(w, "  (%s)", m.Note)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Variants) > 0 {
		sites := make([]string, 0, len(r.Variants))
		for s := range r.Variants {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			fmt.Fprintf(w, "%-14s final variant %s = %s\n", r.Workload, s, r.Variants[s])
		}
	}
}

// summaryLine renders the one-line summary: correctness counts and each
// catalogue metric's value and unit.
func summaryLine(r *result) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
