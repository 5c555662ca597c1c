package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file regenerates Figure 6: the multi-phased scenario. Each iteration
// creates and populates many list instances and executes 100 operations of
// the phase's dominant type; the dominant operation changes every five
// iterations (contains → iteration → index → search-and-remove → contains).
// CollectionSwitch is plotted against fixed ArrayList, HashArrayList and
// LinkedList. The paper documents one deliberate miss — the framework picks
// HashArrayList instead of ArrayList in the search-and-remove phase because
// the model prices positional removal identically on both — which this
// reproduction preserves (see perfmodel/defaults.go).

// Fig6Iteration is one x-position of Figure 6.
type Fig6Iteration struct {
	Index int
	Phase workload.Phase
	// Times in milliseconds per setup.
	Switch, ArrayList, HashArrayList, LinkedList float64
	// SwitchVariant is the variant the context used during this
	// iteration.
	SwitchVariant collections.VariantID
}

// Fig6Result is the full multi-phase series.
type Fig6Result struct {
	Iterations []Fig6Iteration
}

// RunFig6 measures the multi-phase scenario, with o configuring the
// engine. The scenario measures adaptation from the declared default, so
// the warm-start store is left out.
func RunFig6(sc Scale, o apps.Obs) Fig6Result {
	o.Label, o.WarmStart = "fig6", nil
	e := o.NewEngine(core.Config{WindowSize: 100, FinishedRatio: 0.6, Rule: core.Rtime()})
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName("fig6"))
	hook := engineHook(e)

	var res Fig6Result
	idx := 0
	for _, phase := range workload.Phases() {
		for rep := 0; rep < sc.Fig6Reps; rep++ {
			seed := int64(idx + 1)
			it := Fig6Iteration{Index: idx, Phase: phase}

			// CollectionSwitch run: analysis happens between batches.
			elapsed, _ := workload.MultiPhaseIteration(ctx.NewList, phase,
				sc.Fig6Instances, sc.Fig6Size, sc.Fig6Ops, seed, sc.Fig6Instances/10, hook)
			it.Switch = float64(elapsed.Microseconds()) / 1000
			it.SwitchVariant = ctx.CurrentVariant()
			// Give the engine a final chance to adapt before the next
			// iteration (mirrors its continuous background analysis).
			runtime.GC()
			e.AnalyzeNow()

			for _, fixed := range []struct {
				id   collections.VariantID
				dest *float64
			}{
				{collections.ArrayListID, &it.ArrayList},
				{collections.HashArrayListID, &it.HashArrayList},
				{collections.LinkedListID, &it.LinkedList},
			} {
				id := fixed.id
				el, _ := workload.MultiPhaseIteration(func() collections.List[int] {
					return collections.NewListOf[int](id, 0)
				}, phase, sc.Fig6Instances, sc.Fig6Size, sc.Fig6Ops, seed, 0, nil)
				*fixed.dest = float64(el.Microseconds()) / 1000
			}
			res.Iterations = append(res.Iterations, it)
			idx++
		}
	}
	return res
}

// PrintFig6 renders the Figure 6 series.
func PrintFig6(w io.Writer, res Fig6Result) {
	header(w, "Figure 6 — multi-phased scenario (times in ms, Rtime)")
	fmt.Fprintf(w, "%4s %-18s %10s %10s %10s %10s  %s\n",
		"iter", "phase", "Switch", "ArrayList", "HashArrLst", "LinkedList", "switch variant")
	for _, it := range res.Iterations {
		fmt.Fprintf(w, "%4d %-18s %10.2f %10.2f %10.2f %10.2f  %s\n",
			it.Index, it.Phase, it.Switch, it.ArrayList, it.HashArrayList, it.LinkedList,
			it.SwitchVariant)
	}
	fmt.Fprintln(w, "(paper: Switch tracks the best fixed variant per phase except")
	fmt.Fprintln(w, " search-and-remove, where the model limitation keeps HashArrayList)")
}
