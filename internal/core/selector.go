package core

import (
	"fmt"
	"math"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// costAgg incrementally accumulates the per-variant total costs TC_D(V) of
// Section 3.1.1 over the workloads of finished instances. Folding happens
// once per instance; the decision step then only compares the accumulated
// sums, making its cost independent of the window size (the Figure 7
// property).
type costAgg struct {
	*pricing
	// tc[candidateIndex*len(dims)+dimIndex] accumulated total cost.
	tc     []float64
	folded int
	// size spread of folded workloads, for adaptive gating.
	minSize, maxSize int64
	// Confidence gating (Config.ConfidenceLevel): z is the normal-quantile
	// multiplier of the configured level and lo/hi mirror tc with the
	// accumulated interval bounds. Both stay zero/nil — and fold performs no
	// interval work at all — until setConfidence arms them.
	z      float64
	lo, hi []float64
}

// pricing is what an aggregate reads but never writes: the candidates it
// ranks and the dimensions it folds under one model set, each candidate's
// resolved curves, and whether it is an adaptive variant. Windows over one
// model set share one pricing (siteCore.resolve).
type pricing struct {
	models     *perfmodel.Models
	candidates []collections.VariantID
	dims       []perfmodel.Dimension
	// curves[candidateIndex][dimIndex] holds the model cells fold
	// evaluates.
	curves [][]opCurves
	// adaptive[candidateIndex] caches collections.IsAdaptive, so a
	// decision makes no catalog lookups.
	adaptive []bool
}

// add appends candidate v with the curves resolveCurves returned for it.
func (p *pricing) add(v collections.VariantID, curves []opCurves) {
	p.candidates = append(p.candidates, v)
	p.curves = append(p.curves, curves)
	p.adaptive = append(p.adaptive, collections.IsAdaptive(v))
}

// opCurves holds one candidate's resolved curves on one dimension, in
// perfmodel.Ops() order: populate, contains, iterate, middle. Footprint is
// charged through the populate curve alone, so on that dimension only
// index 0 is resolved.
type opCurves [4]perfmodel.Resolved

// resolveCurves resolves every cell fold evaluates for candidate v over
// dims. ok is false when the models lack one; op and dim then name the
// first gap, and evaluating the missing cell panics like Models.Cost.
func resolveCurves(models *perfmodel.Models, v collections.VariantID, dims []perfmodel.Dimension) (curves []opCurves, op perfmodel.Op, dim perfmodel.Dimension, ok bool) {
	curves = make([]opCurves, len(dims))
	ok = true
	for di, d := range dims {
		ops := perfmodel.Ops()
		if d == perfmodel.DimFootprint {
			ops = ops[:1]
		}
		for oi, o := range ops {
			r, found := models.Resolve(v, o, d)
			curves[di][oi] = r
			if !found && ok {
				op, dim, ok = o, d, false
			}
		}
	}
	return curves, op, dim, ok
}

func newCostAgg(models *perfmodel.Models, candidates []collections.VariantID) *costAgg {
	return newCostAggDims(models, candidates, perfmodel.Dimensions())
}

// newCostAggDims builds an aggregate over only the given dimensions. The
// site cores pass the active rule's dimensions: accumulating dimensions the
// rule never reads would waste fold work and would demand model curves the
// decision cannot use. Every candidate joins, priced or not: folding one the
// models lack a curve for panics like Models.Cost (siteCore.resolve drops
// such candidates first).
func newCostAggDims(models *perfmodel.Models, candidates []collections.VariantID, dims []perfmodel.Dimension) *costAgg {
	p := &pricing{models: models, dims: dims}
	for _, v := range candidates {
		cv, _, _, _ := resolveCurves(models, v, dims)
		p.add(v, cv)
	}
	return newWindowAgg(p)
}

// newWindowAgg returns an empty aggregate over p: one window's zeroed
// totals.
func newWindowAgg(p *pricing) *costAgg {
	return &costAgg{
		pricing: p,
		tc:      make([]float64, len(p.candidates)*len(p.dims)),
		minSize: math.MaxInt64,
	}
}

// setConfidence arms the aggregate's interval accumulation: z is the normal
// quantile of the engine's ConfidenceLevel (√2·erfinv(level)). With z ≤ 0 —
// the default — the aggregate stays a pure point-estimate accumulator and
// decide is byte-identical to the legacy path.
func (a *costAgg) setConfidence(z float64) {
	if z <= 0 {
		return
	}
	a.z = z
	a.lo = make([]float64, len(a.tc))
	a.hi = make([]float64, len(a.tc))
}

// fold adds one instance workload to the running totals.
func (a *costAgg) fold(w Workload) {
	a.folded++
	if w.MaxSize < a.minSize {
		a.minSize = w.MaxSize
	}
	if w.MaxSize > a.maxSize {
		a.maxSize = w.MaxSize
	}
	s := float64(w.MaxSize)
	if s < 1 {
		s = 1
	}
	// Populate is modeled per complete population to size s, so the raw
	// add count converts to "number of populations".
	popN := float64(w.Adds) / s
	nd := len(a.dims)
	for ci, curves := range a.curves {
		for di, dim := range a.dims {
			cv := &curves[di]
			k := ci*nd + di
			if dim == perfmodel.DimFootprint {
				// Footprint is a retained-state dimension: charged
				// once per instance at its maximum size.
				a.tc[k] += cv[0].Cost(s)
				if a.z > 0 {
					l, h := cv[0].CostCI(s, a.z)
					a.lo[k] += l
					a.hi[k] += h
				}
				continue
			}
			c := popN * cv[0].Cost(s)
			c += float64(w.Contains) * cv[1].Cost(s)
			c += float64(w.Iterates) * cv[2].Cost(s)
			c += float64(w.Middles) * cv[3].Cost(s)
			a.tc[k] += c
			if a.z > 0 {
				// Interval bounds accumulate with the same multipliers as
				// the point costs. Summing lower bounds with lower bounds
				// (and upper with upper) treats the per-op model errors as
				// perfectly correlated — a conservative widening that can
				// only suppress switches, never force one.
				lp, hp := cv[0].CostCI(s, a.z)
				lc, hc := cv[1].CostCI(s, a.z)
				li, hit := cv[2].CostCI(s, a.z)
				lm, hm := cv[3].CostCI(s, a.z)
				a.lo[k] += popN*lp + float64(w.Contains)*lc + float64(w.Iterates)*li + float64(w.Middles)*lm
				a.hi[k] += popN*hp + float64(w.Contains)*hc + float64(w.Iterates)*hit + float64(w.Middles)*hm
			}
		}
	}
}

// dimIndex returns dim's index in a.dims, or -1 when it is not aggregated.
func (a *costAgg) dimIndex(dim perfmodel.Dimension) int {
	for di, d := range a.dims {
		if d == dim {
			return di
		}
	}
	return -1
}

// candidateIndex returns v's index in a.candidates, or -1 when v is not
// ranked.
func (a *costAgg) candidateIndex(v collections.VariantID) int {
	for i, c := range a.candidates {
		if c == v {
			return i
		}
	}
	return -1
}

// total returns TC_D(V) for candidate index ci.
func (a *costAgg) total(ci int, dim perfmodel.Dimension) float64 {
	if di := a.dimIndex(dim); di >= 0 {
		return a.tc[ci*len(a.dims)+di]
	}
	return 0
}

// sizeSpread returns maxSize/minSize of the folded workloads (≥1); 1 when
// nothing was folded.
func (a *costAgg) sizeSpread() float64 {
	if a.folded == 0 || a.maxSize <= 0 {
		return 1
	}
	minSz := a.minSize
	if minSz < 1 {
		minSz = 1
	}
	return float64(a.maxSize) / float64(minSz)
}

// decision is the outcome of evaluating a rule over an aggregate.
type decision struct {
	switchTo collections.VariantID
	// ratios holds the winner's TC_D(new)/TC_D(cur) per rule criterion, in
	// rule.Criteria order (ratioMap keys them by dimension).
	ratios []float64
	ok     bool
	// suppressedTo names the best candidate (lowest point first-criterion
	// ratio) that cleared every point-estimate threshold but was withheld by
	// the confidence gate: its interval upper ratio exceeded a threshold.
	// Empty when nothing was suppressed. suppressedC1 carries its point
	// first-criterion ratio for the decision record and suppression event.
	suppressedTo collections.VariantID
	suppressedC1 float64
}

// adaptiveSizeSpread is the factor by which the observed max sizes of the
// monitored instances must spread, smallest to largest, before adaptive
// variants become candidates (Section 3.2: "widely ranging sizes").
const adaptiveSizeSpread = 4

// decide applies the selection rule of Section 3.1.2: a candidate is
// eligible if TC_D(new)/TC_D(cur) ≤ T_D for every criterion; among eligible
// candidates the largest improvement on the first criterion wins. Adaptive
// variants are only considered when the observed sizes are "widely ranging"
// (Section 3.2): the spread must reach adaptiveSizeSpread AND the sizes must
// straddle the variant's transition threshold — an adaptive collection is
// pointless when every instance stays on one side of it.
func decide(a *costAgg, current collections.VariantID, rule Rule, adaptiveThreshold int64) decision {
	d, _, _, _ := decideExplain(a, current, rule, adaptiveThreshold, false)
	return d
}

// decideExplain is decide plus explainability. It returns the nearest miss
// — the non-gated alternative with the lowest first-criterion ratio,
// whether or not it was eligible — for the held-decision margin, and when
// explain is set also one CandidateEstimate per catalog candidate (costs,
// ratios, eligibility, the first gate each ineligible candidate failed).
// The decision and the nearest miss are computed identically with explain
// on or off; without explain, only a winner allocates (its ratios).
//
// On a confidence-armed aggregate (setConfidence) a point-eligible candidate
// must additionally clear every criterion with its interval upper ratio; the
// best candidate the gate withholds is reported through the decision's
// suppressed fields so the engine can surface it as a ci_overlap outcome.
func decideExplain(a *costAgg, current collections.VariantID, rule Rule, adaptiveThreshold int64, explain bool) (decision, []CandidateEstimate, collections.VariantID, float64) {
	curIdx := a.candidateIndex(current)
	if curIdx < 0 || a.folded == 0 {
		return decision{}, nil, "", math.Inf(1)
	}
	spread := a.sizeSpread()
	// Ratio scratch for the candidate under test and for the best one so
	// far; a rule has one criterion per dimension, so both fit on the stack.
	n := len(rule.Criteria)
	var scratch [8]float64
	buf := scratch[:]
	if 2*n > len(buf) {
		buf = make([]float64, 2*n)
	}
	ratios, bestRatios := buf[:n], buf[n:2*n]
	bestIdx := -1
	bestC1 := math.Inf(1)
	var estimates []CandidateEstimate
	var miss collections.VariantID
	missC1 := math.Inf(1)
	var supTo collections.VariantID
	supC1 := math.Inf(1)
	if explain {
		estimates = make([]CandidateEstimate, 0, len(a.candidates))
	}
	for i, v := range a.candidates {
		if i == curIdx {
			if explain {
				estimates = a.appendEstimate(estimates, i, curIdx, rule, false, "current", nil)
			}
			continue
		}
		if a.adaptive[i] {
			straddles := a.minSize < adaptiveThreshold && a.maxSize > adaptiveThreshold
			if spread < adaptiveSizeSpread || !straddles {
				if explain {
					for k, crit := range rule.Criteria {
						ratios[k] = a.ratio(i, curIdx, crit.Dimension)
					}
					estimates = a.appendEstimate(estimates, i, curIdx, rule, false, "adaptive size gate", ratios)
				}
				continue
			}
		}
		// Without explain the loop stops at the first failed criterion:
		// only ratios[0] is read then.
		eligible := true
		failure := ""
		for k, crit := range rule.Criteria {
			ratio := a.ratio(i, curIdx, crit.Dimension)
			ratios[k] = ratio
			if ratio > crit.Threshold {
				eligible = false
				if !explain {
					break
				}
				if failure == "" {
					failure = fmt.Sprintf("%s ratio %.4g > threshold %.4g", crit.Dimension, ratio, crit.Threshold)
				}
			}
		}
		// Confidence gate: a candidate that beat every point threshold must
		// also beat them with its conservative upper ratio (candidate upper
		// bound over current lower bound) before it may switch. Disarmed
		// aggregates (z == 0) never enter this loop, keeping the legacy
		// decision path — and its traces — bit-identical.
		ciBlocked := false
		if eligible && a.z > 0 {
			for _, crit := range rule.Criteria {
				rhi := a.ratioCI(i, curIdx, crit.Dimension)
				if rhi > crit.Threshold {
					ciBlocked = true
					if !explain {
						break
					}
					if failure == "" {
						failure = fmt.Sprintf("ci_overlap: %s upper ratio %.4g > threshold %.4g", crit.Dimension, rhi, crit.Threshold)
					}
				}
			}
			if ciBlocked && ratios[0] < supC1 {
				supC1 = ratios[0]
				supTo = v
			}
		}
		if explain {
			estimates = a.appendEstimate(estimates, i, curIdx, rule, eligible && !ciBlocked, failure, ratios)
		}
		if ratios[0] < missC1 {
			missC1 = ratios[0]
			miss = v
		}
		if eligible && !ciBlocked && ratios[0] < bestC1 {
			bestC1 = ratios[0]
			bestIdx = i
			// Keep the winner's ratios; the next candidate overwrites the
			// other buffer.
			ratios, bestRatios = bestRatios, ratios
		}
	}
	var best decision
	if bestIdx >= 0 {
		best = decision{switchTo: a.candidates[bestIdx], ratios: append([]float64(nil), bestRatios...), ok: true}
	}
	if supTo != "" {
		best.suppressedTo = supTo
		best.suppressedC1 = supC1
	}
	return best, estimates, miss, missC1
}

// ratioMap keys per-criterion ratios (rule.Criteria order) by dimension,
// the form Transition.Ratios and CandidateEstimate.Ratios carry.
func ratioMap(rule Rule, ratios []float64) map[perfmodel.Dimension]float64 {
	m := make(map[perfmodel.Dimension]float64, len(ratios))
	for k, crit := range rule.Criteria {
		m[crit.Dimension] = ratios[k]
	}
	return m
}

// ratio returns TC_D(candidate ci)/TC_D(candidate curIdx) with the decide
// conventions for zero denominators.
func (a *costAgg) ratio(ci, curIdx int, dim perfmodel.Dimension) float64 {
	newCost := a.total(ci, dim)
	curCost := a.total(curIdx, dim)
	switch {
	case curCost > 0:
		return newCost / curCost
	case newCost == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// ratioCI returns the conservative upper bound on TC_D(ci)/TC_D(curIdx):
// the candidate's accumulated upper bound over the current variant's lower
// bound, with the decide conventions for zero denominators. Only meaningful
// on armed aggregates (setConfidence).
func (a *costAgg) ratioCI(ci, curIdx int, dim perfmodel.Dimension) float64 {
	di := a.dimIndex(dim)
	if di < 0 {
		return math.Inf(1)
	}
	nd := len(a.dims)
	hiNew := a.hi[ci*nd+di]
	loCur := a.lo[curIdx*nd+di]
	switch {
	case loCur > 0:
		return hiNew / loCur
	case hiNew == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// appendEstimate appends the explain entry for candidate ci: accumulated
// costs over every aggregated dimension plus, for a candidate other than the
// current one, the rule-criterion ratios against curIdx the caller computed
// (rule.Criteria order). It appends the entry itself so the entry's
// temporaries stay out of decideExplain's frame: a window close decides
// without explaining, right after a forced collection may have shrunk the
// goroutine's stack, and a smaller frame is less likely to make it grow.
func (a *costAgg) appendEstimate(dst []CandidateEstimate, ci, curIdx int, rule Rule, eligible bool, reason string, ratios []float64) []CandidateEstimate {
	row := ci * len(a.dims)
	costs := make(map[perfmodel.Dimension]float64, len(a.dims))
	for di, dim := range a.dims {
		costs[dim] = a.tc[row+di]
	}
	est := CandidateEstimate{
		Variant:  a.candidates[ci],
		Costs:    costs,
		Eligible: eligible,
		Reason:   reason,
	}
	if a.z > 0 {
		est.CostsLo = make(map[perfmodel.Dimension]float64, len(a.dims))
		est.CostsHi = make(map[perfmodel.Dimension]float64, len(a.dims))
		for di, dim := range a.dims {
			est.CostsLo[dim] = a.lo[row+di]
			est.CostsHi[dim] = a.hi[row+di]
		}
	}
	if ci != curIdx {
		est.Ratios = ratioMap(rule, ratios)
		if a.z > 0 {
			est.RatiosHi = make(map[perfmodel.Dimension]float64, len(rule.Criteria))
			for _, crit := range rule.Criteria {
				est.RatiosHi[crit.Dimension] = a.ratioCI(ci, curIdx, crit.Dimension)
			}
		}
	}
	return append(dst, est)
}
