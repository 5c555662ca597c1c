// Quickstart: the minimal CollectionSwitch workflow of the paper's Figure 4.
//
// A collection allocation site is instrumented by creating an allocation
// context (typically a package-level "static context") and drawing
// collections from it instead of calling a constructor directly. The
// framework monitors a window of the created instances, and when the
// selection rule finds a variant whose modeled cost beats the current one,
// future instantiations switch to it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"runtime"

	"repro/internal/collections"
	"repro/internal/core"
)

// switchEngine plays the role of the framework runtime: it owns the
// performance models, the selection rule and the periodic analysis task.
var switchEngine = core.NewEngine(core.Config{
	Rule: core.Rtime(), // Table 4: switch when time cost < 0.8x current
})

// listCtx is the static allocation context replacing a plain
// `collections.NewArrayList[int]()` call site (paper Figure 4).
var listCtx = core.NewListContext[int](switchEngine, core.WithName("quickstart:list"))

func main() {
	defer switchEngine.Close()

	fmt.Println("initial variant:", listCtx.CurrentVariant())

	// A lookup-heavy workload: populate 500 elements, then run many
	// membership tests. On an ArrayList each Contains is a linear scan;
	// the framework's models know a HashArrayList answers it in O(1).
	for round := 0; round < 3; round++ {
		for i := 0; i < 150; i++ {
			l := listCtx.NewList()
			for j := 0; j < 500; j++ {
				l.Add(j * 3)
			}
			hits := 0
			for j := 0; j < 500; j++ {
				if l.Contains(j * 2) {
					hits++
				}
			}
			_ = hits
		}
		// Instances dropped above become garbage; the GC clears the
		// monitors' weak references, which is how the framework learns
		// the instances finished (the paper's WeakReference technique).
		runtime.GC()
		switchEngine.AnalyzeNow()
		fmt.Printf("after round %d: variant = %s\n", round+1, listCtx.CurrentVariant())
	}

	for _, tr := range switchEngine.Transitions() {
		fmt.Printf("transition at %s: %s -> %s (time ratio %.2f)\n",
			tr.Context, tr.From, tr.To, tr.Ratios["time-ns"])
	}
	if len(switchEngine.Transitions()) == 0 {
		fmt.Println("no transition — unexpected for this workload")
	}

	// The switched variant is a drop-in replacement: same List interface,
	// same semantics, different cost profile.
	l := listCtx.NewList()
	l.Add(42)
	fmt.Println("new list works:", l.Contains(42), "len:", l.Len())
	if listCtx.CurrentVariant() == collections.HashArrayListID {
		fmt.Println("instances now come from the switched variant")
	}
}
