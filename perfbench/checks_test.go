package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCheckBudget(t *testing.T) {
	if err := checkBudget(100, 100); err != nil {
		t.Errorf("fits exactly: %v", err)
	}
	if err := checkBudget(101, 100); err == nil {
		t.Error("over budget passed")
	}
	if err := checkBudget(1<<40, 0); err != nil {
		t.Errorf("unconstrained: %v", err)
	}
}

func TestCheckCost(t *testing.T) {
	if err := checkCost(10, 10); err != nil {
		t.Errorf("equal cost: %v", err)
	}
	if err := checkCost(10.01, 10); err == nil {
		t.Error("costlier than initial passed")
	}
}

func TestCheckDemanded(t *testing.T) {
	ok := []core.StructureDecision{
		{ID: "pk", Kind: "index", Outcome: "required"},
		{ID: "a", Kind: "index", Outcome: "kept", DemandedBy: []string{"q1"}},
		{ID: "b", Kind: "index", Outcome: "merged", DemandedBy: []string{"q2"}},
		{ID: "ab", Kind: "index", Outcome: "created", Events: []core.DecisionEvent{{Iteration: 3, Action: "merge-indexes"}}},
	}
	if err := checkDemanded(&core.ExplainReport{Structures: ok}, nil); err != nil {
		t.Errorf("demanded report failed: %v", err)
	}
	for _, bad := range []core.StructureDecision{
		{ID: "undemanded", Kind: "index", Outcome: "kept"},
		{ID: "dropped", Kind: "view", Outcome: "removed"},
		{ID: "stale", Kind: "index", Outcome: "created"},
	} {
		err := checkDemanded(&core.ExplainReport{Structures: append(append([]core.StructureDecision(nil), ok...), bad)}, map[string]bool{"other": true})
		if err == nil || !strings.Contains(err.Error(), bad.ID) {
			t.Errorf("%s %s: got %v, want a failure naming it", bad.Outcome, bad.ID, err)
		}
	}
	// A warm start carried the structure over from the previous
	// recommendation.
	carried := []core.StructureDecision{{ID: "v_old", Kind: "view", Outcome: "created"}}
	if err := checkDemanded(&core.ExplainReport{Structures: carried}, map[string]bool{"v_old": true}); err != nil {
		t.Errorf("carried-over structure: %v", err)
	}
	if checkDemanded(nil, nil) == nil {
		t.Error("missing report passed")
	}
}

func TestCheckSame(t *testing.T) {
	a := outcome{fingerprint: "ix:a", cost: 1, iterations: 3, samples: 2}
	if err := checkSame(a, a); err != nil {
		t.Errorf("identical outcomes: %v", err)
	}
	for _, mutate := range []func(*outcome){
		func(o *outcome) { o.fingerprint = "ix:b" },
		func(o *outcome) { o.cost = 1.5 },
		func(o *outcome) { o.iterations = 4 },
		func(o *outcome) { o.samples = 3 },
	} {
		b := a
		mutate(&b)
		if checkSame(a, b) == nil {
			t.Errorf("differing outcome %v passed", b)
		}
	}
}

func TestReportCountsFailuresAndExitsIncorrect(t *testing.T) {
	r := newReport()
	r.op("fine")
	r.op("broken", nil, checkBudget(2, 1))
	res := r.result()
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Errorf("result = %+v, want 2 attempted, 1 failed, not correct", res)
	}
	if len(r.errs) != 1 || !strings.HasPrefix(r.errs[0], "broken: ") {
		t.Errorf("errs = %q", r.errs)
	}
}
