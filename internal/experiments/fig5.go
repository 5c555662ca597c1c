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

// This file regenerates Figure 5: the single-phase micro-benchmark. Each
// point of the sweep creates and populates many collection instances and
// runs 100 lookups per instance; CollectionSwitch (starting from the JDK
// default) is compared against the fixed JDK-like variant. Panels a–c use
// Rtime and report execution time; panels d–e use Ralloc and report bytes
// allocated. The marker column indicates the variant the context switched
// to at that size, matching the figure's transition markers.

// Fig5Point is one x-position of a Figure 5 panel.
type Fig5Point struct {
	Size int
	// Switch/Baseline are the measured costs of the CollectionSwitch run
	// and the fixed-variant run.
	SwitchTime, BaselineTime   float64 // seconds
	SwitchAlloc, BaselineAlloc uint64  // bytes
	// SelectedVariant is the variant in use at the end of the
	// CollectionSwitch run ("" if it never switched).
	SelectedVariant collections.VariantID
}

// Fig5Panel is one sub-figure (a–e).
type Fig5Panel struct {
	Name     string // e.g. "5a: list time vs ArrayList"
	Rule     string
	Baseline collections.VariantID
	Points   []Fig5Point
}

// newFig5Engine builds the manual engine used for one single-phase run.
func newFig5Engine(rule core.Rule, name string, o apps.Obs) *core.Engine {
	o.Label = name
	return o.NewEngine(core.Config{WindowSize: 100, FinishedRatio: 0.6, Rule: rule})
}

// hook ticks the engine the way the background analyzer and the JVM GC
// would: collect dead monitors, then analyze.
func engineHook(e *core.Engine) func() {
	return func() {
		runtime.GC()
		e.AnalyzeNow()
	}
}

// interleave measures one point: it runs the CollectionSwitch factory sw
// and the fixed-variant factory base through the single-phase runner run in
// chunks of every instances, alternating which side goes first, and sums
// each side's chunks, so load from other processes that comes and goes
// during the point falls on both sides alike. Both sides end a chunk with
// the same forced collection (the fixed side's hook is runtime.GC alone), so
// the CollectionSwitch side pays only its analysis on top.
func interleave[C any](run func(func() C, int, int, int, int64, int, func()) (workload.Result, int),
	sw, base func() C, hook func(), instances, size, lookups, every int) (swRes, baseRes workload.Result) {
	if every <= 0 {
		every = instances
	}
	for done, chunk := 0, 0; done < instances; done, chunk = done+every, chunk+1 {
		n := min(every, instances-done)
		for k := range 2 {
			newC, tick, sum := sw, hook, &swRes
			if (k+chunk)%2 == 1 {
				newC, tick, sum = base, runtime.GC, &baseRes
			}
			r, _ := run(newC, n, size, lookups, int64(size), every, tick)
			sum.Elapsed += r.Elapsed
			sum.AllocBytes += r.AllocBytes
		}
	}
	return swRes, baseRes
}

// RunFig5 measures all five panels at the given scale, with o configuring
// every engine. The sweep measures selection from the declared default, so
// the warm-start store is left out.
func RunFig5(sc Scale, o apps.Obs) []Fig5Panel {
	o.WarmStart = nil
	panels := []Fig5Panel{
		{Name: "5a: Lists, Rtime, time vs ArrayList", Rule: "Rtime", Baseline: collections.ArrayListID},
		{Name: "5b: Sets, Rtime, time vs HashSet", Rule: "Rtime", Baseline: collections.HashSetID},
		{Name: "5c: Maps, Rtime, time vs HashMap", Rule: "Rtime", Baseline: collections.HashMapID},
		{Name: "5d: Sets, Ralloc, allocation vs HashSet", Rule: "Ralloc", Baseline: collections.HashSetID},
		{Name: "5e: Maps, Ralloc, allocation vs HashMap", Rule: "Ralloc", Baseline: collections.HashMapID},
	}
	every := sc.Fig5Instances / 20
	for _, size := range sc.Fig5Sizes {
		// Panel a: lists under Rtime.
		panels[0].Points = append(panels[0].Points,
			fig5Point(fig5Lists, core.Rtime(), size, sc.Fig5Instances, sc.Fig5ListLookups, every, o))
		// Panel b/d: sets under Rtime and Ralloc.
		panels[1].Points = append(panels[1].Points,
			fig5Point(fig5Sets, core.Rtime(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		panels[3].Points = append(panels[3].Points,
			fig5Point(fig5Sets, core.Ralloc(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		// Panel c/e: maps under Rtime and Ralloc.
		panels[2].Points = append(panels[2].Points,
			fig5Point(fig5Maps, core.Rtime(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		panels[4].Points = append(panels[4].Points,
			fig5Point(fig5Maps, core.Ralloc(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
	}
	return panels
}

// fig5Kind is what separates the list, set and map panels: the prefix that
// names each point's engine and context, the single-phase runner, the
// context under test and its factory method, and the fixed baseline.
type fig5Kind[C any, X interface{ CurrentVariant() collections.VariantID }] struct {
	prefix     string
	run        func(func() C, int, int, int, int64, int, func()) (workload.Result, int)
	newContext func(*core.Engine, ...core.Option) X
	factory    func(X) C
	newBase    func() C
	baseID     collections.VariantID
}

var (
	fig5Lists = fig5Kind[collections.List[int], *core.ListContext[int]]{
		"fig5a", workload.SinglePhaseList, core.NewListContext[int], (*core.ListContext[int]).NewList,
		func() collections.List[int] { return collections.NewArrayList[int]() }, collections.ArrayListID,
	}
	fig5Sets = fig5Kind[collections.Set[int], *core.SetContext[int]]{
		"fig5set", workload.SinglePhaseSet, core.NewSetContext[int], (*core.SetContext[int]).NewSet,
		func() collections.Set[int] { return collections.NewHashSet[int]() }, collections.HashSetID,
	}
	fig5Maps = fig5Kind[collections.Map[int, int], *core.MapContext[int, int]]{
		"fig5map", workload.SinglePhaseMap, core.NewMapContext[int, int], (*core.MapContext[int, int]).NewMap,
		func() collections.Map[int, int] { return collections.NewHashMap[int, int]() }, collections.HashMapID,
	}
)

// fig5Point measures one size of one panel.
func fig5Point[C any, X interface{ CurrentVariant() collections.VariantID }](k fig5Kind[C, X], rule core.Rule, size, instances, lookups, every int, o apps.Obs) Fig5Point {
	name := fmt.Sprintf("%s@%d", k.prefix, size)
	e := newFig5Engine(rule, name, o)
	defer e.Close()
	ctx := k.newContext(e, core.WithName(name))
	swRes, baseRes := interleave(k.run, func() C { return k.factory(ctx) }, k.newBase,
		engineHook(e), instances, size, lookups, every)
	p := Fig5Point{
		Size:          size,
		SwitchTime:    swRes.Elapsed.Seconds(),
		BaselineTime:  baseRes.Elapsed.Seconds(),
		SwitchAlloc:   swRes.AllocBytes,
		BaselineAlloc: baseRes.AllocBytes,
	}
	if v := ctx.CurrentVariant(); v != k.baseID {
		p.SelectedVariant = v
	}
	return p
}

// PrintFig5 renders the Figure 5 series.
func PrintFig5(w io.Writer, panels []Fig5Panel) {
	for _, panel := range panels {
		header(w, "Figure "+panel.Name)
		alloc := panel.Rule == "Ralloc"
		if alloc {
			fmt.Fprintf(w, "%6s %15s %15s %8s  %s\n", "size", "Switch(MB)", "Baseline(MB)", "ratio", "selected variant")
		} else {
			fmt.Fprintf(w, "%6s %15s %15s %8s  %s\n", "size", "Switch(s)", "Baseline(s)", "ratio", "selected variant")
		}
		for _, p := range panel.Points {
			var sw, base float64
			if alloc {
				sw = float64(p.SwitchAlloc) / (1024 * 1024)
				base = float64(p.BaselineAlloc) / (1024 * 1024)
			} else {
				sw = p.SwitchTime
				base = p.BaselineTime
			}
			ratio := 0.0
			if base > 0 {
				ratio = sw / base
			}
			sel := string(p.SelectedVariant)
			if sel == "" {
				sel = "(kept default)"
			}
			fmt.Fprintf(w, "%6d %15.3f %15.3f %8.2f  %s\n", p.Size, sw, base, ratio, sel)
		}
	}
}
