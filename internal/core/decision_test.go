package core

import (
	"runtime"
	"testing"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// lastRecord returns the newest decision record of the site, failing the
// test when the ring is empty.
func lastRecord(t *testing.T, e *Engine, site string) DecisionRecord {
	t.Helper()
	recs := e.Explain(site)
	if len(recs) == 0 {
		t.Fatalf("Explain(%q) returned no records", site)
	}
	return recs[len(recs)-1]
}

func TestExplainSwitchedRecordMatchesTransition(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:switch"))
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	trs := e.Transitions()
	if len(trs) != 1 {
		t.Fatalf("transitions = %d, want 1", len(trs))
	}
	rec := lastRecord(t, e, "explain:switch")
	if rec.Outcome != OutcomeSwitched {
		t.Fatalf("outcome = %s, want switched", rec.Outcome)
	}
	if rec.Winner != trs[0].To {
		t.Errorf("record winner = %s, transition switched to %s", rec.Winner, trs[0].To)
	}
	if rec.Round != trs[0].Round {
		t.Errorf("record round = %d, transition round = %d", rec.Round, trs[0].Round)
	}
	if rec.Variant != trs[0].From {
		t.Errorf("record variant = %s, transition from = %s", rec.Variant, trs[0].From)
	}
	if rec.Margin <= 0 {
		t.Errorf("switched margin = %g, want > 0", rec.Margin)
	}
	// The per-candidate estimates must cover the catalog: the current
	// variant labeled as such, the winner eligible, and every entry
	// carrying cost estimates for the rule dimension.
	if len(rec.Candidates) == 0 {
		t.Fatal("switched record has no candidate estimates")
	}
	var sawCurrent, sawWinner bool
	for _, est := range rec.Candidates {
		if _, ok := est.Costs[perfmodel.DimTimeNS]; !ok {
			t.Errorf("estimate %s lacks a %s cost", est.Variant, perfmodel.DimTimeNS)
		}
		switch est.Variant {
		case rec.Variant:
			sawCurrent = true
			if est.Reason != "current" {
				t.Errorf("current estimate reason = %q", est.Reason)
			}
		case rec.Winner:
			sawWinner = true
			if !est.Eligible {
				t.Error("winner estimate not marked eligible")
			}
			if r := est.Ratios[perfmodel.DimTimeNS]; r >= 1 {
				t.Errorf("winner time ratio = %g, want < 1", r)
			}
		}
	}
	if !sawCurrent || !sawWinner {
		t.Errorf("estimates missing current (%v) or winner (%v)", sawCurrent, sawWinner)
	}
}

func TestExplainHeldRecordCarriesMargin(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:held"))
	churnLists(ctx, 10, 10, 50) // small sizes: ArrayList stays optimal
	e.AnalyzeNow()
	if got := len(e.Transitions()); got != 0 {
		t.Fatalf("transitions = %d, want 0", got)
	}
	rec := lastRecord(t, e, "explain:held")
	if rec.Outcome != OutcomeHeld {
		t.Fatalf("outcome = %s, want held", rec.Outcome)
	}
	if rec.Winner == "" {
		t.Error("held record has no nearest-miss winner")
	}
	if rec.Margin > 0 {
		t.Errorf("held margin = %g, want ≤ 0", rec.Margin)
	}
	for _, est := range rec.Candidates {
		if est.Variant != rec.Variant && est.Eligible {
			// An eligible alternative with the rule's margin would have
			// switched; held records must explain why each one failed.
			if est.Ratios[perfmodel.DimTimeNS] < 1 {
				t.Errorf("held record lists eligible improving candidate %s", est.Variant)
			}
		}
	}
}

func TestExplainWaitingReasons(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:wait"))

	// Half-filled window: the pass reports window_filling with the fill.
	churnLists(ctx, 5, 100, 10)
	e.AnalyzeNow()
	rec := lastRecord(t, e, "explain:wait")
	if rec.Outcome != OutcomeWindowFilling {
		t.Fatalf("outcome = %s, want window_filling", rec.Outcome)
	}
	if rec.WindowFill != 5 {
		t.Errorf("window_fill = %d, want 5", rec.WindowFill)
	}

	// Full window, all instances alive: awaiting_finished with the gate.
	live := make([]collections.List[int], 0, 5)
	for i := 0; i < 5; i++ {
		l := ctx.NewList()
		l.Add(i)
		live = append(live, l)
	}
	runtime.GC()
	e.AnalyzeNow()
	rec = lastRecord(t, e, "explain:wait")
	if rec.Outcome != OutcomeAwaitingFinished {
		t.Fatalf("outcome = %s, want awaiting_finished", rec.Outcome)
	}
	if rec.NeededFolds != 6 {
		t.Errorf("needed_folds = %d, want 6", rec.NeededFolds)
	}
	if rec.Folded >= 6 {
		t.Errorf("folded = %d, want < 6", rec.Folded)
	}
	runtime.KeepAlive(live)
}

func TestExplainCooldownRecordsFoldRepeats(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: 2})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:cool"))
	churnLists(ctx, 10, 10, 10)
	e.AnalyzeNow() // closes the round, enters a 20-creation cooldown
	if got := ctx.Round(); got != 1 {
		t.Fatalf("round = %d, want 1", got)
	}
	e.AnalyzeNow()
	e.AnalyzeNow()
	recs := e.Explain("explain:cool")
	if len(recs) < 2 {
		t.Fatalf("records = %d, want ≥ 2 (close + cooldown)", len(recs))
	}
	last := recs[len(recs)-1]
	if last.Outcome != OutcomeCooldown {
		t.Fatalf("outcome = %s, want cooldown", last.Outcome)
	}
	if last.Cooldown != 20 {
		t.Errorf("cooldown remaining = %d, want 20", last.Cooldown)
	}
	// The two cooldown passes folded into one record instead of flushing
	// the ring with identical lines.
	if last.Repeats != 2 {
		t.Errorf("repeats = %d, want 2", last.Repeats)
	}
	if prev := recs[len(recs)-2]; prev.Outcome == OutcomeCooldown {
		t.Errorf("consecutive cooldown records not folded: %+v", prev)
	}
}

func TestExplainRingBound(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:ring"))
	for round := 0; round < decisionRingSize+2; round++ {
		churnLists(ctx, 10, 10, 10)
		e.AnalyzeNow() // each pass closes a held round: no dedup applies
	}
	recs := e.Explain("explain:ring")
	if len(recs) != decisionRingSize {
		t.Fatalf("ring kept %d records, want %d", len(recs), decisionRingSize)
	}
	// The two oldest records were evicted: the survivors are rounds 2 to
	// decisionRingSize+1 in order.
	for i, rec := range recs {
		if rec.Round != i+2 {
			t.Errorf("recs[%d].Round = %d, want %d", i, rec.Round, i+2)
		}
	}
}

func TestExplainDisabledAndUnknownSite(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1})
	defer e.Close()
	NewListContext[int](e, WithName("explain:known"))
	if recs := e.Explain("no-such-site"); recs != nil {
		t.Errorf("Explain(unknown) returned %d records, want nil", len(recs))
	}
}

func TestExplainWarmHoldRecord(t *testing.T) {
	e := NewEngineManual(Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
		WarmStart: fakeStarter{
			"explain:warm": {Variant: collections.HashArrayListID, Profile: lookupHeavyProfile()},
		},
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("explain:warm"))
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	rec := lastRecord(t, e, "explain:warm")
	if rec.Outcome != OutcomeWarmHold {
		t.Fatalf("outcome = %s, want warm_hold", rec.Outcome)
	}
	if rec.Variant != collections.HashArrayListID {
		t.Errorf("warm-hold variant = %s, want the restored HashArrayList", rec.Variant)
	}
	if rec.Drift < 0 || rec.Drift > driftThreshold {
		t.Errorf("warm-hold drift = %g, want within [0, %g]", rec.Drift, driftThreshold)
	}
	if len(rec.Candidates) != 0 {
		t.Errorf("warm-hold record carries %d candidate estimates, want 0 (no rule ran)", len(rec.Candidates))
	}
}

func TestSiteStatusesReflectLiveState(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: 2})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("status:list"))
	churnLists(ctx, 10, 10, 10)
	e.AnalyzeNow()
	e.AnalyzeNow()
	sts := e.SiteStatuses()
	if len(sts) != 1 {
		t.Fatalf("statuses = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Name != "status:list" || st.Abstraction != "list" {
		t.Errorf("status identity = %s/%s", st.Name, st.Abstraction)
	}
	if st.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", st.Rounds)
	}
	if st.Cooldown != 20 {
		t.Errorf("cooldown = %d, want 20", st.Cooldown)
	}
	if st.LastOutcome != OutcomeCooldown {
		t.Errorf("last outcome = %s, want cooldown", st.LastOutcome)
	}
}

// TestDecideExplainMatchesDecide pins the refactoring invariant: the
// decision computed with explain enabled is identical to the plain decide
// path on the same aggregate.
func TestDecideExplainMatchesDecide(t *testing.T) {
	models := perfmodel.Default()
	cands := []collections.VariantID{
		collections.ArrayListID, collections.LinkedListID, collections.HashArrayListID,
	}
	for _, w := range []Workload{
		{Adds: 500, Contains: 500, MaxSize: 500},
		{Adds: 10, Contains: 2, MaxSize: 10},
		{Adds: 100, Iterates: 50, MaxSize: 100},
	} {
		agg := newCostAgg(models, cands)
		for i := 0; i < 10; i++ {
			agg.fold(w)
		}
		plain := decide(agg, collections.ArrayListID, Rtime(), 64)
		withExplain, ests, _, _ := decideExplain(agg, collections.ArrayListID, Rtime(), 64, true)
		if plain.ok != withExplain.ok || plain.switchTo != withExplain.switchTo {
			t.Errorf("workload %+v: decide=%+v explain=%+v", w, plain, withExplain)
		}
		if len(ests) != len(cands) {
			t.Errorf("workload %+v: %d estimates, want %d", w, len(ests), len(cands))
		}
	}
}
