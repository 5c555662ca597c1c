package core

import (
	"time"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// Decision explainability (ISSUE 6). The paper's answer to "why did the
// framework pick that variant?" is a trace log; decision records upgrade it
// to a queryable form: every analysis pass appends, per site, one bounded-
// ring record stating either what was decided (per-candidate cost estimates
// under the active rule, the winner, the margin) or the concrete reason no
// decision could fire (cooldown, window still filling, finished ratio not
// reached, warm-start hold, model gaps). Engine.Explain(site) serves the
// ring; the /sites/{name}/explain endpoint of internal/diag is its HTTP
// face. Recording happens exclusively inside analysis passes under the
// context mutex — the lock-free creation fast path never sees it — and
// emits no events, so it leaves the trace untouched.
// A record of a rule evaluation keeps the closed window's aggregate and
// derives its per-candidate estimates only when read, so closing a window
// costs what its decision costs.

// DecisionOutcome classifies one analysis pass at one allocation context.
type DecisionOutcome string

const (
	// OutcomeSwitched: the rule fired; Winner is the variant switched to
	// and a matching Transition event was emitted.
	OutcomeSwitched DecisionOutcome = "switched"
	// OutcomeHeld: the window closed and the rule was evaluated, but no
	// candidate beat the thresholds. Winner is the nearest miss and Margin
	// (≤ 0) how far it was from the first criterion's threshold.
	OutcomeHeld DecisionOutcome = "held"
	// OutcomeCooldown: the context is in its post-round cooldown; the next
	// Cooldown creations are handed out unmonitored and no window exists
	// to decide over.
	OutcomeCooldown DecisionOutcome = "cooldown"
	// OutcomeWindowFilling: the monitoring window has room (WindowFill of
	// WindowSize instances monitored so far).
	OutcomeWindowFilling DecisionOutcome = "window_filling"
	// OutcomeAwaitingFinished: the window is full but fewer than
	// NeededFolds instances have become unreachable (Folded counts them) —
	// the paper's finished-ratio gate.
	OutcomeAwaitingFinished DecisionOutcome = "awaiting_finished"
	// OutcomeWarmHold: a warm-started context closed a window without rule
	// evaluation because its observed profile stayed within the drift
	// threshold of the persisted one (Drift carries the measured value).
	OutcomeWarmHold DecisionOutcome = "warm_hold"
	// OutcomeModelMissing: the window closed but ranking was impossible —
	// the active models lack curves for the current variant or for every
	// alternative (ModelGaps lists the skipped candidates).
	OutcomeModelMissing DecisionOutcome = "model_missing"
	// OutcomeCIOverlap: confidence gating (Config.ConfidenceLevel) withheld
	// a switch — a candidate beat every point-estimate threshold but its
	// interval upper ratio did not. Winner names the suppressed candidate
	// and Margin (> 0) how far its point ratio cleared the first criterion;
	// a matching obs.SwitchSuppressed event was emitted.
	OutcomeCIOverlap DecisionOutcome = "ci_overlap"
)

// CandidateEstimate is one candidate's standing in a rule evaluation: the
// accumulated total costs TC_D over the closed window for each rule
// dimension, the TC_D(candidate)/TC_D(current) ratios, and whether the
// candidate satisfied every criterion (Reason names the first gate it
// failed: a criterion threshold or the adaptive-variant size gate; the
// current variant itself is listed with Reason "current").
type CandidateEstimate struct {
	Variant  collections.VariantID           `json:"variant"`
	Costs    map[perfmodel.Dimension]float64 `json:"costs"`
	Ratios   map[perfmodel.Dimension]float64 `json:"ratios,omitempty"`
	Eligible bool                            `json:"eligible"`
	Reason   string                          `json:"reason,omitempty"`
	// CostsLo/CostsHi bound Costs at the engine's configured confidence
	// level, and RatiosHi is the conservative upper ratio (candidate upper
	// bound over the current variant's lower bound) the confidence gate
	// compares against the thresholds. All absent when ConfidenceLevel is
	// unset.
	CostsLo  map[perfmodel.Dimension]float64 `json:"costs_lo,omitempty"`
	CostsHi  map[perfmodel.Dimension]float64 `json:"costs_hi,omitempty"`
	RatiosHi map[perfmodel.Dimension]float64 `json:"ratios_hi,omitempty"`
}

// DecisionRecord is one analysis pass at one site, as retained by the
// per-context explain ring (decisionRingSize, Engine.Explain). Round
// follows the Transition convention: the 0-based monitoring round that was
// in progress during the pass.
type DecisionRecord struct {
	When    time.Time             `json:"when"`
	Round   int                   `json:"round"`
	Variant collections.VariantID `json:"variant"` // current variant at pass time
	Outcome DecisionOutcome       `json:"outcome"`
	// Winner is the switch target (switched) or the nearest-miss candidate
	// (held); empty for passes that never ranked candidates.
	Winner collections.VariantID `json:"winner,omitempty"`
	// Margin is Criteria[0].Threshold − ratio₁(Winner): positive means the
	// winner cleared the first criterion by that much, negative (held) how
	// far the nearest miss was from triggering.
	Margin float64 `json:"margin,omitempty"`
	// Candidates holds the full per-candidate estimates of a rule
	// evaluation (switched/held outcomes only).
	Candidates []CandidateEstimate `json:"candidates,omitempty"`
	// ModelGaps lists candidates excluded from the ranking because the
	// active models lack curves the rule needs.
	ModelGaps []collections.VariantID `json:"model_gaps,omitempty"`
	// Cooldown / WindowFill / Folded / NeededFolds locate a waiting pass:
	// unmonitored creations remaining, monitored instances in the open
	// window, instances folded so far, and the finished-ratio target.
	Cooldown    int `json:"cooldown,omitempty"`
	WindowFill  int `json:"window_fill,omitempty"`
	Folded      int `json:"folded,omitempty"`
	NeededFolds int `json:"needed_folds,omitempty"`
	// Drift is the measured profile drift of a warm_hold pass.
	Drift float64 `json:"drift,omitempty"`
	// Repeats counts consecutive passes with this same waiting outcome
	// that were folded into this record instead of flooding the ring
	// (1 = the pass happened once).
	Repeats int `json:"repeats"`

	// agg is the closed window's aggregate of a pass that evaluated the
	// rule; Candidates is derived from it when the record is read.
	agg *costAgg
}

// explain fills Candidates of a record that evaluated the rule: the same
// decideExplain the window close ran, with estimates on, over the same
// aggregate — which nothing folds into after its window closes — so the
// estimates are those of the decision itself. threshold is the context's
// adaptive-variant transition threshold.
func (rec *DecisionRecord) explain(rule Rule, threshold int64) {
	if rec.agg != nil {
		_, rec.Candidates, _, _ = decideExplain(rec.agg, rec.Variant, rule, threshold, true)
	}
}

// waiting reports whether the outcome is a no-op pass eligible for
// consecutive-record folding.
func (o DecisionOutcome) waiting() bool {
	switch o {
	case OutcomeCooldown, OutcomeWindowFilling, OutcomeAwaitingFinished:
		return true
	}
	return false
}

// decisionRingSize is how many decision records each context retains for
// Engine.Explain.
const decisionRingSize = 16

// decisionRing retains the last decisionRingSize decision records of one
// context. It is guarded by the owning siteCore's mutex (analyze appends
// while holding it; decisionRecords copies under it), so the ring itself is
// lock-free.
type decisionRing struct {
	buf   [decisionRingSize]DecisionRecord
	start int
	n     int
}

// push appends a record. Consecutive records with the same waiting outcome
// and variant collapse into one entry with a bumped Repeats count — a site
// sitting in a long cooldown keeps its ring informative instead of filling
// it with identical lines.
func (r *decisionRing) push(rec DecisionRecord) {
	rec.Repeats = 1
	if r.n > 0 && rec.Outcome.waiting() {
		last := &r.buf[(r.start+r.n-1)%len(r.buf)]
		if last.Outcome == rec.Outcome && last.Variant == rec.Variant {
			rec.Repeats = last.Repeats + 1
			*last = rec
			return
		}
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

// records returns the retained records, oldest first, with the candidate
// estimates of every rule evaluation derived (DecisionRecord.explain) under
// the context's rule and transition threshold.
func (r *decisionRing) records(rule Rule, threshold int64) []DecisionRecord {
	out := make([]DecisionRecord, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
		out[i].explain(rule, threshold)
	}
	return out
}

// lastOutcome returns the outcome of the newest record; empty when the ring
// is empty.
func (r *decisionRing) lastOutcome() DecisionOutcome {
	if r.n == 0 {
		return ""
	}
	return r.buf[(r.start+r.n-1)%len(r.buf)].Outcome
}

// SiteStatus is one allocation context's live introspection view: the
// warm-start snapshot plus the in-flight window and cooldown counters and
// the outcome of the most recent analysis pass. The diag server renders one
// per context under /sites.
type SiteStatus struct {
	SiteSnapshot
	WindowFill  int             `json:"window_fill"`
	Folded      int             `json:"folded"`
	Cooldown    int             `json:"cooldown"`
	LastOutcome DecisionOutcome `json:"last_outcome,omitempty"`
}

// SiteStatuses returns one live status per registered context, in
// registration order. Each status is captured under its context's lock;
// the set is not a cross-context atomic snapshot.
func (e *Engine) SiteStatuses() []SiteStatus {
	e.mu.Lock()
	ctxs := make([]analyzable, len(e.contexts))
	copy(ctxs, e.contexts)
	e.mu.Unlock()
	out := make([]SiteStatus, len(ctxs))
	for i, c := range ctxs {
		out[i] = c.siteStatus()
	}
	return out
}

// Explain returns the retained decision records of the named allocation
// context, oldest first — the queryable form of "why did (or didn't) this
// site switch". It returns nil for unknown sites. The returned slice is a
// copy; records are immutable snapshots.
func (e *Engine) Explain(site string) []DecisionRecord {
	e.mu.Lock()
	var target analyzable
	for _, c := range e.contexts {
		if c.contextName() == site {
			target = c
			break
		}
	}
	e.mu.Unlock()
	if target == nil {
		return nil
	}
	return target.decisionRecords()
}
