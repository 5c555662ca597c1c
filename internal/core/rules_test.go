package core

import (
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func TestTableFourRules(t *testing.T) {
	rt := Rtime()
	if len(rt.Criteria) != 1 || rt.Criteria[0].Dimension != perfmodel.DimTimeNS || rt.Criteria[0].Threshold != 0.8 {
		t.Fatalf("Rtime = %+v, want time<0.8", rt)
	}
	ra := Ralloc()
	if len(ra.Criteria) != 2 {
		t.Fatalf("Ralloc has %d criteria, want 2", len(ra.Criteria))
	}
	if ra.Criteria[0].Dimension != perfmodel.DimAllocB || ra.Criteria[0].Threshold != 0.8 {
		t.Fatalf("Ralloc C1 = %+v, want alloc<0.8", ra.Criteria[0])
	}
	if ra.Criteria[1].Dimension != perfmodel.DimTimeNS || ra.Criteria[1].Threshold != 1.2 {
		t.Fatalf("Ralloc C2 = %+v, want time<1.2", ra.Criteria[1])
	}
}

func TestRuleValidate(t *testing.T) {
	for _, r := range []Rule{Rtime(), Ralloc(), Rfootprint(), ImpossibleRule()} {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
	bad := []Rule{
		{Name: "empty"},
		{Name: "nonpos", Criteria: []Criterion{{perfmodel.DimTimeNS, 0}}},
		{Name: "neg", Criteria: []Criterion{{perfmodel.DimTimeNS, -1}}},
		{Name: "dup", Criteria: []Criterion{
			{perfmodel.DimTimeNS, 0.8}, {perfmodel.DimTimeNS, 1.2},
		}},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %q validated", r.Name)
		}
	}
}

// An invalid rule is rejected when the engine is built, not at its first
// window close, where decide would index a missing criterion (and, under
// NewEngine, panic on the background analysis goroutine).
func TestInvalidRulePanicsAtConstruction(t *testing.T) {
	for _, r := range []Rule{
		{Name: "custom"},
		{Name: "nonpos", Criteria: []Criterion{{perfmodel.DimTimeNS, 0}}},
		{Name: "dup", Criteria: []Criterion{{perfmodel.DimTimeNS, 0.8}, {perfmodel.DimTimeNS, 1.2}}},
	} {
		for name, build := range map[string]func(Config) *Engine{"NewEngine": NewEngine, "NewEngineManual": NewEngineManual} {
			func() {
				defer func() {
					got := recover()
					err, ok := got.(error)
					if !ok || err.Error() != r.Validate().Error() {
						t.Errorf("%s(rule %q) panicked with %v, want Validate's error %q", name, r.Name, got, r.Validate())
					}
				}()
				e := build(Config{Rule: r})
				e.Close()
			}()
		}
	}
}

func TestRuleString(t *testing.T) {
	s := Ralloc().String()
	for _, want := range []string{"Ralloc", "alloc-b<0.80", "time-ns<1.20"} {
		if !strings.Contains(s, want) {
			t.Errorf("Ralloc.String() = %q missing %q", s, want)
		}
	}
}

func TestImpossibleRuleNeverEligible(t *testing.T) {
	// Direct selector-level check: with a 1000x requirement nothing wins.
	models := perfmodel.Default()
	agg := newCostAgg(models, listCandidates())
	for i := 0; i < 10; i++ {
		agg.fold(Workload{Adds: 500, Contains: 100, MaxSize: 500})
	}
	d := decide(agg, "list/array", ImpossibleRule(), 50)
	if d.ok {
		t.Fatalf("impossible rule selected %s", d.switchTo)
	}
}
