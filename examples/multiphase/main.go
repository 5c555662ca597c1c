// multiphase: the Figure 6 scenario — a workload whose dominant operation
// changes over time, defeating any single fixed variant.
//
// The paper's point: real executions have phases (contains-heavy, then
// iteration-heavy, then positional), and CollectionSwitch re-adapts at each
// phase boundary because monitoring continues after every switch. This
// example drives a list context through the five Figure 6 phases and prints
// the variant in use during each, including the documented model-limitation
// miss in the "search and remove" phase (the cost model prices positional
// removal identically on ArrayList and HashArrayList, so the framework
// keeps the hash variant although the plain array is slightly better).
//
// Run with: go run ./examples/multiphase
package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	instances = 4000
	size      = 400
	ops       = 300
)

func main() {
	engine := core.NewEngineManual(core.Config{Rule: core.Rtime()})
	defer engine.Close()
	ctx := core.NewListContext[int](engine, core.WithName("multiphase"))

	hook := func() {
		runtime.GC()
		engine.AnalyzeNow()
	}

	fmt.Printf("%-20s %-18s %10s\n", "phase", "variant in use", "time (ms)")
	for _, phase := range workload.Phases() {
		for rep := 0; rep < 3; rep++ {
			elapsed, _ := workload.MultiPhaseIteration(
				ctx.NewList, phase, instances, size, ops, int64(rep+1),
				instances/10, hook)
			fmt.Printf("%-20s %-18s %10.1f\n",
				phase, ctx.CurrentVariant(), elapsed.Seconds()*1000)
		}
	}

	fmt.Println("\ntransitions:")
	for _, tr := range engine.Transitions() {
		fmt.Printf("  round %2d: %s -> %s\n", tr.Round, tr.From, tr.To)
	}
}
