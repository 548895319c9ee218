package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sqlx"
)

func TestGarbageDoesNotParseAndTheSetsDo(t *testing.T) {
	if _, err := sqlx.Parse(garbageSQL); err == nil {
		t.Fatalf("%q parses; the stream's rejected statements would be accepted", garbageSQL)
	}
	a, b := daemonSets()
	for _, s := range append(a, b...) {
		if _, err := sqlx.Parse(s); err != nil {
			t.Errorf("stream statement does not parse: %v", err)
		}
	}
}

func TestDaemonStreamIsSeededAndDrifts(t *testing.T) {
	a, b := daemonSets()
	s1 := daemonStream(7, a, b, 40, 20)
	s2 := daemonStream(7, a, b, 40, 20)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(s1, daemonStream(8, a, b, 40, 20)) {
		t.Error("different seeds gave the same stream")
	}
	inA, inB := set(a), set(b)
	garbage := 0
	for i, ib := range s1 {
		var req struct{ Statements []string }
		if err := json.Unmarshal(ib.body, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Statements) != ib.stmts {
			t.Fatalf("batch %d: %d statements, recorded %d", i, len(req.Statements), ib.stmts)
		}
		for _, s := range req.Statements {
			switch {
			case s == garbageSQL:
				garbage++
			case i < 20 && !inA[s], i >= 20 && !inB[s]:
				t.Fatalf("batch %d draws from the wrong statement set", i)
			}
		}
	}
	if want := 40 / garbageEvery; garbage != want {
		t.Errorf("%d unparseable statements, want %d", garbage, want)
	}
}

func set(xs []string) map[string]bool {
	m := map[string]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func TestBatchInputsAreSeeded(t *testing.T) {
	for _, wl := range []string{"batch-tpch", "batch-updates"} {
		x, err := batchInputs(wl, 3, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := batchInputs(wl, 3, 0, 0, nil)
		z, _ := batchInputs(wl, 4, 0, 0, nil)
		if !reflect.DeepEqual(x.weights, y.weights) || reflect.DeepEqual(x.weights, z.weights) {
			t.Errorf("%s: weights not a function of the seed", wl)
		}
		if len(x.weights) != variants || len(x.weights[0]) != len(x.w.Queries) {
			t.Errorf("%s: %d vectors of %d weights for %d statements", wl, len(x.weights), len(x.weights[0]), len(x.w.Queries))
		}
		var sx, sy bytes.Buffer
		for i := range x.w.Queries {
			sx.WriteString(x.w.Queries[i].SQL)
			sy.WriteString(y.w.Queries[i].SQL)
		}
		if sx.String() != sy.String() {
			t.Errorf("%s: statements differ between identical seeds", wl)
		}
	}
	if _, err := batchInputs("nope", 1, 0, 0, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWeightsStayInRange(t *testing.T) {
	for _, v := range weightVectors(rand.New(rand.NewSource(1)), 3, 50) {
		for _, w := range v {
			if w < 1-weightSpread || w >= 1+weightSpread {
				t.Fatalf("weight %v outside 1 ± %v", w, weightSpread)
			}
		}
	}
}

func TestBudgetRule(t *testing.T) {
	// Required indexes take 1.38 MB and the optimum 1.70 MB: half the
	// optimum (0.85 MB) could never be met; the rule stays above base.
	base, opt := int64(1380000), int64(1700000)
	if got := budgetBetween(base, opt); got != 1540000 {
		t.Errorf("budget = %d, want base + (opt − base)/2 = 1540000", got)
	}
}
