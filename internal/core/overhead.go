package core

import (
	"time"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// DecisionOverheadNs measures the cost of one analysis decision over an
// aggregate built from windowSize instance workloads — the quantity Figure 7
// reports across window sizes. Because the engine folds each finished
// instance into running totals exactly once, the decision step only compares
// per-variant sums and its cost is independent of windowSize; this function
// exists to demonstrate and benchmark that property.
func DecisionOverheadNs(models *perfmodel.Models, rule Rule, windowSize, iters int) float64 {
	candidates := make([]collections.VariantID, 0, 8)
	for _, v := range collections.SetVariants[int]() {
		candidates = append(candidates, v.ID)
	}
	agg := newCostAgg(models, candidates)
	for i := 0; i < windowSize; i++ {
		// Vary the sizes so the aggregate is not degenerate.
		size := int64(10 + (i%50)*20)
		agg.fold(Workload{Adds: size, Contains: 100, Iterates: 2, MaxSize: size})
	}
	if iters <= 0 {
		iters = 1
	}
	start := time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		d := decide(agg, collections.HashSetID, rule, collections.DefaultSetThreshold)
		if d.ok {
			sink++
		}
	}
	elapsed := time.Since(start)
	_ = sink
	return float64(elapsed.Nanoseconds()) / float64(iters)
}
