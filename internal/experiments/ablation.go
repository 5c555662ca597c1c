package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// The ablation experiment quantifies the design decisions DESIGN.md §5
// calls out: the monitoring window size, the finished-ratio gate, the
// adaptive-candidate gate and the model degree. Each cell runs the
// lookup-heavy single-phase scenario through a context configured with one
// knob changed and reports whether (and after how many instances) the
// context reached the expected switch, plus the run time.

// AblationCell is one measured configuration.
type AblationCell struct {
	Knob     string
	Value    string
	Switched bool
	// SwitchedAfter is the number of instances created before the
	// context left the default variant (-1 if it never did).
	SwitchedAfter int
	Seconds       float64
}

// AblationResult groups the cells by knob.
type AblationResult struct {
	Cells []AblationCell
}

// runAblationCell drives the scenario against cfg and reports the outcome.
func runAblationCell(cfg core.Config, instances, size, lookups int) (bool, int, float64) {
	e := core.NewEngineManual(cfg)
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName("ablation"))
	switchedAfter := -1
	created := 0
	hook := func() {
		runtime.GC()
		e.AnalyzeNow()
		if switchedAfter < 0 && ctx.CurrentVariant() != collections.ArrayListID {
			switchedAfter = created
		}
	}
	every := instances / 50
	if every < 1 {
		every = 1
	}
	res, _ := workload.SinglePhaseList(func() collections.List[int] {
		created++
		return ctx.NewList()
	}, instances, size, lookups, 1, every, hook)
	// The factory indirection above counts creations; ctx.NewList is
	// invoked through it so the switch point is attributable.
	return switchedAfter >= 0, switchedAfter, res.Elapsed.Seconds()
}

// RunAblation measures all ablation knobs at the given scale.
func RunAblation(sc Scale) AblationResult {
	instances := sc.Fig5Instances
	const size, lookups = 500, 500
	var out AblationResult
	add := func(knob, value string, cfg core.Config) {
		sw, after, secs := runAblationCell(cfg, instances, size, lookups)
		out.Cells = append(out.Cells, AblationCell{
			Knob: knob, Value: value,
			Switched: sw, SwitchedAfter: after, Seconds: secs,
		})
	}
	for _, w := range []int{10, 100, 1000} {
		add("window-size", fmt.Sprintf("%d", w), core.Config{WindowSize: w, Rule: core.Rtime()})
	}
	for _, fr := range []float64{0.2, 0.6, 1.0} {
		add("finished-ratio", fmt.Sprintf("%.1f", fr), core.Config{FinishedRatio: fr, Rule: core.Rtime()})
	}
	for _, cd := range []float64{-1, 3, 10} {
		add("cooldown-windows", fmt.Sprintf("%g", cd), core.Config{CooldownWindows: cd, Rule: core.Rtime()})
	}
	for _, deg := range []int{1, 2, 3} {
		add("model-degree", fmt.Sprintf("%d", deg), core.Config{
			Models: perfmodel.DefaultDegree(deg), Rule: core.Rtime(),
		})
	}
	return out
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, res AblationResult) {
	header(w, "Ablations — framework design decisions (DESIGN.md §5)")
	fmt.Fprintf(w, "%-18s %8s %9s %14s %10s\n",
		"knob", "value", "switched", "after #insts", "time (s)")
	for _, c := range res.Cells {
		after := "-"
		if c.SwitchedAfter >= 0 {
			after = fmt.Sprintf("%d", c.SwitchedAfter)
		}
		fmt.Fprintf(w, "%-18s %8s %9v %14s %10.3f\n",
			c.Knob, c.Value, c.Switched, after, c.Seconds)
	}
	fmt.Fprintln(w, "(scenario: populate 500 + 500 lookups per instance; expected switch: ArrayList -> HashArrayList)")
}
