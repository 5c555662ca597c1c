package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 5), plus ablation benches for the design decisions called out in
// DESIGN.md §5. Each benchmark runs its experiment at a reduced scale per
// iteration; `go test -bench=. -benchmem` therefore regenerates every
// result's shape. cmd/experiments runs the same code at the paper's full
// scale with formatted output.

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// benchScale is the reduced configuration used per benchmark iteration.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Fig5Instances = 1000
	sc.Fig6Instances = 500
	sc.AppScale = 0.05
	sc.AppWarmup = 0
	sc.AppMeasured = 2
	sc.ThresholdTrials = 3
	return sc
}

// BenchmarkFig3ThresholdAnalysis regenerates the Figure 3 / Table 1
// transition-threshold analysis.
func BenchmarkFig3ThresholdAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.RunThresholdAnalysis(3)
		if len(results) != 3 {
			b.Fatal("threshold analysis incomplete")
		}
	}
}

// fig5Bench runs one Figure 5 panel point per iteration.
func fig5Bench(b *testing.B, panel int, size int) {
	sc := benchScale()
	sc.Fig5Sizes = []int{size}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels := experiments.RunFig5(sc, apps.Obs{})
		if len(panels[panel].Points) != 1 {
			b.Fatal("missing point")
		}
	}
}

// BenchmarkFig5aListsRtime regenerates Figure 5a (lists vs ArrayList).
func BenchmarkFig5aListsRtime(b *testing.B) {
	for _, size := range []int{100, 500, 1000} {
		b.Run(sizeName(size), func(b *testing.B) { fig5Bench(b, 0, size) })
	}
}

// BenchmarkFig5bSetsRtime regenerates Figure 5b (sets vs HashSet).
func BenchmarkFig5bSetsRtime(b *testing.B) {
	for _, size := range []int{100, 500, 1000} {
		b.Run(sizeName(size), func(b *testing.B) { fig5Bench(b, 1, size) })
	}
}

// BenchmarkFig5cMapsRtime regenerates Figure 5c (maps vs HashMap).
func BenchmarkFig5cMapsRtime(b *testing.B) {
	for _, size := range []int{100, 500, 1000} {
		b.Run(sizeName(size), func(b *testing.B) { fig5Bench(b, 2, size) })
	}
}

// BenchmarkFig5dSetsRalloc regenerates Figure 5d (set allocation, Ralloc).
func BenchmarkFig5dSetsRalloc(b *testing.B) {
	for _, size := range []int{100, 500, 1000} {
		b.Run(sizeName(size), func(b *testing.B) { fig5Bench(b, 3, size) })
	}
}

// BenchmarkFig5eMapsRalloc regenerates Figure 5e (map allocation, Ralloc).
func BenchmarkFig5eMapsRalloc(b *testing.B) {
	for _, size := range []int{100, 500, 1000} {
		b.Run(sizeName(size), func(b *testing.B) { fig5Bench(b, 4, size) })
	}
}

// BenchmarkFig6MultiPhase regenerates the Figure 6 multi-phase scenario.
func BenchmarkFig6MultiPhase(b *testing.B) {
	sc := benchScale()
	sc.Fig6Reps = 1
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig6(sc, apps.Obs{})
		if len(res.Iterations) != 5 {
			b.Fatal("missing iterations")
		}
	}
}

// BenchmarkFig7AnalyzerOverhead measures the decision-step cost per window
// size — the Figure 7 sweep. The reported ns/op IS the figure's y-value.
func BenchmarkFig7AnalyzerOverhead(b *testing.B) {
	models := perfmodel.Default()
	for _, window := range []int{100, 1000, 10000, 100000} {
		b.Run(sizeName(window), func(b *testing.B) {
			ns := core.DecisionOverheadNs(models, core.Rtime(), window, b.N)
			b.ReportMetric(ns, "decision-ns")
		})
	}
}

// BenchmarkTable5DaCapo runs each DaCapo-substitute app once per iteration
// in Original and FullAdap(Rtime) modes.
func BenchmarkTable5DaCapo(b *testing.B) {
	for _, app := range apps.All(0.05) {
		app := app
		b.Run(app.Name()+"/original", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				apps.Run(app, apps.ModeOriginal, core.Rtime(), 1)
			}
		})
		b.Run(app.Name()+"/fulladap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				apps.Run(app, apps.ModeFullAdap, core.Rtime(), 1)
			}
		})
		b.Run(app.Name()+"/instanceadap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				apps.Run(app, apps.ModeInstanceAdap, core.Rtime(), 1)
			}
		})
	}
}

// BenchmarkTable6Transitions measures a FullAdap run under each rule and
// reports the transition count (the Table 6 input).
func BenchmarkTable6Transitions(b *testing.B) {
	for _, rule := range []core.Rule{core.Rtime(), core.Ralloc()} {
		rule := rule
		b.Run(rule.Name, func(b *testing.B) {
			transitions := 0
			for i := 0; i < b.N; i++ {
				res := apps.Run(apps.NewH2(0.1), apps.ModeFullAdap, rule, 1)
				transitions += len(res.Transitions)
			}
			b.ReportMetric(float64(transitions)/float64(b.N), "transitions/run")
		})
	}
}

// BenchmarkOverheadImpossibleRule reproduces the Section 5.3 overhead
// methodology: full monitoring with a rule no candidate can satisfy.
func BenchmarkOverheadImpossibleRule(b *testing.B) {
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.Run(apps.NewAvrora(0.05), apps.ModeOriginal, core.Rtime(), 1)
		}
	})
	b.Run("monitored-no-switching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.Run(apps.NewAvrora(0.05), apps.ModeFullAdap, core.ImpossibleRule(), 1)
		}
	})
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationRun drives one lookup-heavy single-phase run through a context
// with the given config and returns whether a switch happened.
func ablationRun(cfg core.Config, instances int) bool {
	e := core.NewEngineManual(cfg)
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName("ablation"))
	hook := func() {
		runtime.GC()
		e.AnalyzeNow()
	}
	workload.SinglePhaseList(ctx.NewList, instances, 500, 500, 1, instances/10, hook)
	return ctx.CurrentVariant() != collections.ArrayListID
}

// BenchmarkAblationWindowSize varies the monitoring window (paper default
// 100): larger windows mean slower reaction and more monitor overhead.
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, window := range []int{10, 100, 1000} {
		b.Run(sizeName(window), func(b *testing.B) {
			switched := 0
			for i := 0; i < b.N; i++ {
				if ablationRun(core.Config{WindowSize: window, Rule: core.Rtime()}, 2000) {
					switched++
				}
			}
			b.ReportMetric(float64(switched)/float64(b.N), "switched")
		})
	}
}

// BenchmarkAblationFinishedRatio varies the finished-ratio gate (paper
// default 0.6): 1.0 waits for the full window to die, low values act on
// partial evidence.
func BenchmarkAblationFinishedRatio(b *testing.B) {
	for _, ratio := range []float64{0.2, 0.6, 1.0} {
		b.Run(ratioName(ratio), func(b *testing.B) {
			switched := 0
			for i := 0; i < b.N; i++ {
				if ablationRun(core.Config{FinishedRatio: ratio, Rule: core.Rtime()}, 2000) {
					switched++
				}
			}
			b.ReportMetric(float64(switched)/float64(b.N), "switched")
		})
	}
}

// BenchmarkAblationModelDegree compares selection under the paper's cubic
// fits against degraded linear fits of the same analytic curves.
func BenchmarkAblationModelDegree(b *testing.B) {
	for _, degree := range []int{1, 2, 3} {
		models := perfmodel.DefaultDegree(degree)
		b.Run(sizeName(degree), func(b *testing.B) {
			switched := 0
			for i := 0; i < b.N; i++ {
				if ablationRun(core.Config{Models: models, Rule: core.Rtime()}, 2000) {
					switched++
				}
			}
			b.ReportMetric(float64(switched)/float64(b.N), "switched")
		})
	}
}

// BenchmarkMonitorOverhead isolates the per-operation cost the monitor
// wrapper adds to a collection — the reason only a window of instances is
// monitored.
func BenchmarkMonitorOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		l := collections.NewArrayList[int]()
		for i := 0; i < 100; i++ {
			l.Add(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Contains(i % 200)
		}
	})
	b.Run("monitored", func(b *testing.B) {
		e := core.NewEngineManual(core.Config{WindowSize: 1})
		defer e.Close()
		ctx := core.NewListContext[int](e)
		l := ctx.NewList()
		for i := 0; i < 100; i++ {
			l.Add(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Contains(i % 200)
		}
	})
}

func sizeName(n int) string {
	switch {
	case n >= 1000000:
		return itoa(n/1000000) + "M"
	case n >= 1000:
		return itoa(n/1000) + "k"
	default:
		return itoa(n)
	}
}

func ratioName(r float64) string {
	if r >= 1e6 {
		return "inf"
	}
	return itoa(int(r*100)) + "pct"
}

// itoa avoids strconv in this file's tiny helpers.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
