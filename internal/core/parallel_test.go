package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/workloads"
)

// requireSameOutcome asserts the invariant the parallel engine promises:
// any Parallelism setting yields the same recommendation, cost,
// iteration count, and calibration trail as the serial algorithm.
func requireSameOutcome(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if sfp, pfp := serial.Best.Config.Fingerprint(), parallel.Best.Config.Fingerprint(); sfp != pfp {
		t.Errorf("best fingerprint diverged: serial %s, parallel %s", sfp, pfp)
	}
	if serial.Best.Cost != parallel.Best.Cost {
		t.Errorf("best cost diverged: serial %v, parallel %v", serial.Best.Cost, parallel.Best.Cost)
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("iterations diverged: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
	}
	if !slices.Equal(serial.TransCensus, parallel.TransCensus) {
		t.Errorf("transformation census diverged: serial %v, parallel %v", serial.TransCensus, parallel.TransCensus)
	}
	if len(serial.CalibSamples) != len(parallel.CalibSamples) {
		t.Fatalf("calibration samples diverged: serial %d, parallel %d",
			len(serial.CalibSamples), len(parallel.CalibSamples))
	}
	for i := range serial.CalibSamples {
		if serial.CalibSamples[i] != parallel.CalibSamples[i] {
			t.Errorf("calibration sample %d diverged: serial %+v, parallel %+v",
				i, serial.CalibSamples[i], parallel.CalibSamples[i])
		}
	}
}

// TestParallelTuneEquivalenceTPCH: a budget-constrained TPC-H session at
// Parallelism 8 must reproduce the serial recommendation exactly.
func TestParallelTuneEquivalenceTPCH(t *testing.T) {
	probe := tpchTuner(t, Options{NoViews: true})
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Opt.Sizer().ConfigBytes(optCfg) / 3

	run := func(parallelism int) *Result {
		tn := tpchTuner(t, Options{
			NoViews: true, SpaceBudget: budget, MaxIterations: 40, Parallelism: parallelism,
		})
		res, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	requireSameOutcome(t, serial, parallel)
	if parallel.ParallelWorkers != 8 {
		t.Errorf("ParallelWorkers = %d, want 8", parallel.ParallelWorkers)
	}
	if serial.ParallelWorkers != 1 {
		t.Errorf("serial ParallelWorkers = %d, want 1", serial.ParallelWorkers)
	}
}

// TestParallelTuneEquivalenceUpdates exercises the update path: skyline
// filtering, update-shell recosting, and the cutoff-free search loop all
// under the parallel engine.
func TestParallelTuneEquivalenceUpdates(t *testing.T) {
	db := datagen.TPCH(0.001)
	w, err := workloads.FromStatements("upd-par", "tpch", []string{
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 GROUP BY o_orderpriority",
		"SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > 9131 GROUP BY l_shipmode",
		"UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE l_shipdate >= 10400",
		"UPDATE orders SET o_totalprice = o_totalprice * 1.05 WHERE o_orderdate >= 10400",
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) *Result {
		tn, err := NewTuner(db, w, Options{NoViews: true, MaxIterations: 40, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameOutcome(t, run(1), run(8))
}

// TestParallelEvaluateMatchesSerial: one full-configuration evaluation
// fanned over workers must reduce to the bit-identical weighted cost.
func TestParallelEvaluateMatchesSerial(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	tnP := tpchTuner(t, Options{NoViews: true, Parallelism: 8})
	parallel, err := tnP.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cost != parallel.Cost {
		t.Errorf("cost diverged: serial %v, parallel %v", serial.Cost, parallel.Cost)
	}
	if serial.SizeBytes != parallel.SizeBytes {
		t.Errorf("size diverged: serial %d, parallel %d", serial.SizeBytes, parallel.SizeBytes)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result count diverged: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		if serial.Results[i].TotalCost() != parallel.Results[i].TotalCost() {
			t.Errorf("query %d cost diverged: %v vs %v",
				i, serial.Results[i].TotalCost(), parallel.Results[i].TotalCost())
		}
	}
}

// skylineQuadratic is the O(n²) reference the sweep replaced; the
// property test below checks the sweep agrees with it on random inputs.
func skylineQuadratic(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.delta.DT <= c.delta.DT && d.delta.DS >= c.delta.DS &&
				(d.delta.DT < c.delta.DT || d.delta.DS > c.delta.DS) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return cands
	}
	return out
}

// TestSkylineSweepMatchesQuadratic: random candidate sets — with exact
// ΔT/ΔS ties and duplicates to stress the strictness clause — must
// produce identical survivors in identical order from both filters.
func TestSkylineSweepMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		cands := make([]candidate, n)
		for i := range cands {
			// Small integer-valued grids force frequent exact ties.
			cands[i].delta = Delta{
				DT: float64(rng.Intn(11) - 5),
				DS: int64(rng.Intn(9) - 4),
			}
		}
		want := skylineQuadratic(cands)
		got := skyline(cands)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sweep kept %d, quadratic kept %d\ncands: %+v",
				trial, len(got), len(want), cands)
		}
		for i := range want {
			if got[i].delta != want[i].delta {
				t.Fatalf("trial %d: survivor %d differs: sweep %+v, quadratic %+v",
					trial, i, got[i].delta, want[i].delta)
			}
		}
	}
}

// TestEvalMemo: a repeated Evaluate is answered from the memo with zero
// optimizer calls, and a memo that reaches its bound starts over empty.
func TestEvalMemo(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 1})
	if _, err := tn.Evaluate(tn.Base); err != nil {
		t.Fatal(err)
	}
	calls0 := tn.Opt.Stats().OptimizeCalls
	if _, err := tn.Evaluate(tn.Base); err != nil {
		t.Fatal(err)
	}
	if tn.Opt.Stats().OptimizeCalls != calls0 {
		t.Error("memo hit still called the optimizer")
	}
	if tn.statEvalHits != 1 || tn.statEvalMisses != 1 {
		t.Fatalf("hits %d, misses %d; want 1, 1", tn.statEvalHits, tn.statEvalMisses)
	}

	for i := len(tn.evalMemo); i < evalMemoCap; i++ {
		tn.evalMemo[fmt.Sprintf("filler-%d", i)] = &EvaluatedConfig{}
	}
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Evaluate(optCfg); err != nil { // miss on a full memo
		t.Fatal(err)
	}
	if len(tn.evalMemo) != 1 {
		t.Fatalf("memo holds %d entries after filling up, want 1", len(tn.evalMemo))
	}
	if _, ok := tn.evalMemo[optCfg.Fingerprint()]; !ok {
		t.Error("the evaluation that hit the bound was not memoized")
	}
	if _, ok := tn.evalMemo[tn.Base.Fingerprint()]; ok {
		t.Error("memo kept an entry from before it was cleared")
	}
}

// TestOptionsWorkers: the Parallelism knob resolves as documented.
func TestOptionsWorkers(t *testing.T) {
	if w := (Options{Parallelism: 3}).Workers(); w != 3 {
		t.Errorf("Parallelism 3 → %d workers", w)
	}
	if w := (Options{}).Workers(); w < 1 {
		t.Errorf("default workers = %d, want ≥ 1", w)
	}
	if w := (Options{Parallelism: 1}).Workers(); w != 1 {
		t.Errorf("Parallelism 1 → %d workers", w)
	}
}
