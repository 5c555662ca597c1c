package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/stats"
)

// spec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's regression bound and direction.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

var errUsage = errors.New("usage: collbench compare [-spec BENCHMARK.json] A.json... -- B.json...")

// compareMain prints one row per workload and end-to-end metric: each
// side's median and quartiles over its result files, the change of B
// against A as a share of A's median, and a verdict. "unresolved" means a
// side's spread (quartile distance over median) is wider than the bound,
// so the runs cannot tell a change within the bound from noise.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(rest)-1 {
		return errUsage
	}
	var sp spec
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	sideA, err := loadResults(rest[:sep])
	if err != nil {
		return err
	}
	sideB, err := loadResults(rest[sep+1:])
	if err != nil {
		return err
	}

	fmt.Printf("%-14s %-12s %-5s | %-34s | %-34s | %-22s %6s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B vs A (base A median)", "bound", "spread", "verdict")
	worse := 0
	for _, w := range workloadNames {
		for _, m := range sp.EndToEnd {
			a, b := sideA.values(w, m.Name), sideB.values(w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, qa1, qa3 := summary(a)
			mb, qb1, qb3 := summary(b)
			change := ratio(mb-ma, ma)
			bad := change
			if m.Better == "higher" {
				bad = -change
			}
			spread := max(ratio(qa3-qa1, ma), ratio(qb3-qb1, mb))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case bad > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-14s %-12s %-5s | %11.5g [%.5g, %.5g] %2d | %11.5g [%.5g, %.5g] %2d | %+7.2f%% of %-11.5g %5.1f%% %6.2f%%  %s\n",
				w, m.Name, m.Unit, ma, qa1, qa3, len(a), mb, qb1, qb3, len(b), 100*change, ma, 100*m.Bound, 100*spread, verdict)
		}
	}
	// Count the final variants of each service site over a side's runs and
	// their sessions, so a bimodal spread can be traced to the engine's
	// choices.
	for _, side := range []struct {
		name string
		rs   results
	}{{"A", sideA}, {"B", sideB}} {
		for _, w := range workloadNames {
			counts := map[string]map[string]int{}
			for _, r := range side.rs {
				if r.Workload != w {
					continue
				}
				for site, vs := range r.Variants {
					if counts[site] == nil {
						counts[site] = map[string]int{}
					}
					for _, v := range strings.Split(vs, "+") {
						counts[site][v]++
					}
				}
			}
			sites := make([]string, 0, len(counts))
			for site := range counts {
				sites = append(sites, site)
			}
			sort.Strings(sites)
			for _, site := range sites {
				vs := make([]string, 0, len(counts[site]))
				for v := range counts[site] {
					vs = append(vs, v)
				}
				sort.Slice(vs, func(i, j int) bool { return counts[site][vs[i]] > counts[site][vs[j]] })
				parts := make([]string, len(vs))
				for i, v := range vs {
					parts[i] = fmt.Sprintf("%d× %s", counts[site][v], v)
				}
				fmt.Printf("%s %s final variants of %s: %s\n", side.name, w, site, strings.Join(parts, ", "))
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

type results []*result

func loadResults(paths []string) (results, error) {
	var rs results
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, &r)
	}
	return rs, nil
}

// values collects a metric's value from every untraced result of workload.
func (rs results) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == metric {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// summary returns the median and quartiles of xs, the quartiles as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same as in other tools.
func summary(xs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = stats.Median(s)
	if len(s) < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return med, q(1), q(3)
}
