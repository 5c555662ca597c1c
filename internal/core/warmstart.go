package core

import (
	"math"

	"repro/internal/collections"
)

// Warm start closes the cold-start gap the paper's design accepts: every
// process begins on default variants and pays a full monitoring round per
// site before the first switch. A WarmStarter (implemented by the
// tuner.Store) replays the previous process's per-site decisions at
// registration time, and the drift check below decides — per window — whether
// the persisted decision still describes the workload the site actually
// observes. While it does, rule evaluation is skipped (no transitions, no
// rule-evaluation counters); once the observed profile drifts past
// driftThreshold the site sheds its warm state and resumes normal selection.

// driftThreshold bounds how far a warm-started context's observed window
// profile may drift from the persisted one (Drift) before the context sheds
// its warm state.
const driftThreshold = 0.5

// WorkloadProfile is the aggregated workload shape of an allocation site:
// operation totals, instance count, and the size statistics of the monitored
// instances. It is the unit of drift comparison and the per-site payload of
// the warm-start store.
type WorkloadProfile struct {
	Adds      float64 `json:"adds"`
	Contains  float64 `json:"contains"`
	Iterates  float64 `json:"iterates"`
	Middles   float64 `json:"middles"`
	Instances int64   `json:"instances"`
	MeanSize  float64 `json:"mean_size"`
	MaxSize   int64   `json:"max_size"`
}

// observe folds one finished instance's workload into the profile.
func (p *WorkloadProfile) observe(w Workload) {
	p.Adds += float64(w.Adds)
	p.Contains += float64(w.Contains)
	p.Iterates += float64(w.Iterates)
	p.Middles += float64(w.Middles)
	p.Instances++
	p.MeanSize += (float64(w.MaxSize) - p.MeanSize) / float64(p.Instances)
	if w.MaxSize > p.MaxSize {
		p.MaxSize = w.MaxSize
	}
}

// ops returns the total operation count of the profile.
func (p WorkloadProfile) ops() float64 {
	return p.Adds + p.Contains + p.Iterates + p.Middles
}

// Drift measures how far two workload profiles diverge, in [0, ~]. It is the
// maximum of two components: the total-variation distance of the operation
// mixes (0 = identical mix, 1 = disjoint operations) and the size drift
// |log2(meanA/meanB)|/4 (a 16× mean-size change scores 1). Profiles with no
// observed instances cannot contradict anything and drift 0; a profile that
// performs operations drifts 1 from one that performs none. The engine's
// threshold (driftThreshold, 0.5) tolerates moderate mix shifts and up to a
// 4× size change before a warm site re-opens selection.
func Drift(a, b WorkloadProfile) float64 {
	if a.Instances == 0 || b.Instances == 0 {
		return 0
	}
	opsA, opsB := a.ops(), b.ops()
	var mix float64
	switch {
	case opsA > 0 && opsB > 0:
		mix = (math.Abs(a.Adds/opsA-b.Adds/opsB) +
			math.Abs(a.Contains/opsA-b.Contains/opsB) +
			math.Abs(a.Iterates/opsA-b.Iterates/opsB) +
			math.Abs(a.Middles/opsA-b.Middles/opsB)) / 2
	case opsA != opsB:
		mix = 1
	}
	sa, sb := a.MeanSize, b.MeanSize
	if sa < 1 {
		sa = 1
	}
	if sb < 1 {
		sb = 1
	}
	size := math.Abs(math.Log2(sa)-math.Log2(sb)) / 4
	return math.Max(mix, size)
}

// WarmDecision is one persisted site decision: the variant the site had
// settled on and the workload profile it was observed under.
type WarmDecision struct {
	Variant collections.VariantID
	Profile WorkloadProfile
}

// WarmStarter supplies persisted site decisions at context registration.
// WarmLookup receives the context's final (duplicate-disambiguated) name and
// reports the stored decision, ok=false for unknown sites. Implementations
// must not call back into the registering Engine. The canonical
// implementation is the tuner.Store.
type WarmStarter interface {
	WarmLookup(context string) (WarmDecision, bool)
}

// SiteSnapshot is the externally visible state of one allocation context:
// what it selected, what it observed, and whether it is running warm. The
// tuner persists snapshots to the warm-start store and plans its shadow
// benchmarks at the observed sizes.
type SiteSnapshot struct {
	Name        string                  `json:"name"`
	Abstraction string                  `json:"abstraction"` // "list", "set", "map"
	Variant     collections.VariantID   `json:"variant"`
	Candidates  []collections.VariantID `json:"candidates"`
	Rounds      int                     `json:"rounds"`
	Warm        bool                    `json:"warm"`
	Profile     WorkloadProfile         `json:"profile"`
}

// SiteSnapshots returns one snapshot per registered context, in registration
// order.
func (e *Engine) SiteSnapshots() []SiteSnapshot {
	e.mu.Lock()
	ctxs := make([]analyzable, len(e.contexts))
	copy(ctxs, e.contexts)
	e.mu.Unlock()
	out := make([]SiteSnapshot, len(ctxs))
	for i, c := range ctxs {
		out[i] = c.siteSnapshot()
	}
	return out
}
