package service

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestObserveResult pins the mapping of one finished session onto the
// tuner metric families.
func TestObserveResult(t *testing.T) {
	reg := obs.NewRegistry()
	tm := obs.NewTunerMetricsWith(reg, obs.TunerMetricsBuckets{})
	res := &core.Result{
		OptimizerCalls:      9,
		PhaseOptimizerCalls: map[string]int64{"optimal-config": 2, "search": 7},
		TransCensus:         []int{4, 3, 3},
		CalibSamples: []obs.CalibSample{
			{Kind: "merge-indexes", EstDT: 10, RealizedDT: 8},
			{Kind: "remove-index", EstDT: 0, RealizedDT: -1}, // no tightness sample
			{Kind: "remove-index", EstDT: 2, RealizedDT: 3},  // bound violated
		},
		Economy: obs.WhatIfEconomy{
			ShortcutPrunes: 1, DuplicateSkips: 2,
			CandidatesRanked: 5, SkylinePruned: 3,
			CacheHits: 4, CacheMisses: 6,
		},
		Frontier: []core.FrontierPoint{
			{SizeBytes: 900},
			{Iteration: 1, SizeBytes: 700},
			{Iteration: 3, SizeBytes: 600},
		},
	}
	observeResult(tm, res, 500)

	for name, c := range map[string]struct{ got, want float64 }{
		"optimizer calls":   {tm.OptimizerCalls.Value(), 9},
		"iterations":        {tm.Iterations.Value(), 3},
		"evaluations":       {tm.Evaluations.Value(), 3},
		"shortcut prunes":   {tm.ShortcutPrunes.Value(), 1},
		"duplicate skips":   {tm.DuplicateSkips.Value(), 2},
		"candidates ranked": {tm.CandidatesRanked.Value(), 5},
		"skyline pruned":    {tm.SkylinePruned.Value(), 3},
		"cache hits":        {tm.CacheHits.Value(), 4},
		"cache misses":      {tm.CacheMisses.Value(), 6},
		"tightness samples": {float64(tm.BoundTightness.Count()), 2},
		"bound violations":  {tm.BoundViolations.Value(), 1},
		"frontier space":    {tm.FrontierSpace.Value(), 600},
		"budget gap":        {tm.BudgetGap.Value(), 100},
		"search calls":      {tm.PhaseOptimizerCalls.Value("search"), 7},
		"retunes observed":  {float64(tm.RetuneDuration.Count()), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", name, c.got, c.want)
		}
	}

	// A session whose loop evaluated nothing leaves the gauges alone.
	observeResult(tm, &core.Result{Frontier: []core.FrontierPoint{{SizeBytes: 900}}}, 500)
	if tm.FrontierSpace.Value() != 600 || tm.BudgetGap.Value() != 100 {
		t.Errorf("seed-only session moved the gauges: space %v, gap %v", tm.FrontierSpace.Value(), tm.BudgetGap.Value())
	}

	var buf bytes.Buffer
	reg.Render(&buf)
	for _, want := range []string{
		`tuner_penalty_bound_tightness_bucket{le="1"} 1`,
		`tuner_phase_optimizer_calls_total{phase="search"} 7`,
		"tuner_fragment_cache_misses_total 6",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestTunerMetricsMatchTraceEvents: the series fed from each session's
// result must carry exactly the values counted from the trace events
// the same sessions emit, across a cold and a warm retune of a
// views-on, budgeted service. The cold window is SELECT-only, so its
// search prunes by §3.5 shortcut; the warm one adds an UPDATE, so its
// search runs the §3.6 skyline.
func TestTunerMetricsMatchTraceEvents(t *testing.T) {
	mem := obs.NewMemorySink()
	s := newTestService(t, Options{TraceSink: mem, Tuning: core.Options{SpaceBudget: 1400 << 10, MaxIterations: 40}})
	s.Ingest(repeat(append(phase1, phase2...), 3))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("cold retune: %v", err)
	}
	s.Ingest(append(repeat(phase1, 3), `UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderdate >= 9131 AND o_orderdate < 9200`))
	if rec, err := s.Retune(); err != nil || !rec.WarmStart {
		t.Fatalf("warm retune: %+v, %v", rec, err)
	}

	var want struct {
		iterations, evaluations, shortcut, duplicate, ranked, pruned float64
		hits, misses, tightness, violations, space, gap              float64
		phaseCalls                                                   map[string]float64
	}
	want.phaseCalls = map[string]float64{}
	for _, e := range mem.Events() {
		f := e.Fields
		switch e.Type {
		case obs.EvIteration:
			want.iterations++
		case obs.EvCandidates:
			want.ranked += num(t, f["survivors"])
			want.pruned += num(t, f["skyline_pruned"])
		case obs.EvEval:
			want.evaluations++
			want.space = num(t, f["size"])
			want.gap = num(t, f["budget_gap"])
			if est := num(t, f["est_dt"]); est > 0 {
				want.tightness++
				if num(t, f["realized_dt"])/est > 1+1e-9 {
					want.violations++
				}
			}
		case obs.EvSkip:
			switch f["reason"] {
			case "shortcut":
				want.shortcut++
			case "duplicate":
				want.duplicate++
			}
		case obs.EvCache:
			if f["hit"].(bool) {
				want.hits++
			} else {
				want.misses++
			}
		case obs.EvSpanEnd:
			if e.Phase != "tune" {
				if calls := num(t, f["optimizer_calls"]); calls > 0 {
					want.phaseCalls[e.Phase] += calls
				}
			}
		}
	}
	if want.evaluations == 0 || want.shortcut == 0 || want.duplicate == 0 || want.pruned == 0 ||
		want.hits == 0 || want.misses == 0 || want.violations == 0 || want.phaseCalls["warm-start"] == 0 {
		t.Fatalf("sessions too trivial to compare: %+v", want)
	}

	tm := s.tunerMetrics
	for name, c := range map[string]struct{ got, want float64 }{
		"tuner_search_iterations_total":       {tm.Iterations.Value(), want.iterations},
		"tuner_search_evaluations_total":      {tm.Evaluations.Value(), want.evaluations},
		"tuner_search_shortcut_prunes_total":  {tm.ShortcutPrunes.Value(), want.shortcut},
		"tuner_search_duplicate_skips_total":  {tm.DuplicateSkips.Value(), want.duplicate},
		"tuner_candidates_ranked_total":       {tm.CandidatesRanked.Value(), want.ranked},
		"tuner_skyline_pruned_total":          {tm.SkylinePruned.Value(), want.pruned},
		"tuner_fragment_cache_hits_total":     {tm.CacheHits.Value(), want.hits},
		"tuner_fragment_cache_misses_total":   {tm.CacheMisses.Value(), want.misses},
		"tuner_penalty_bound_tightness_count": {float64(tm.BoundTightness.Count()), want.tightness},
		"tuner_bound_violations_total":        {tm.BoundViolations.Value(), want.violations},
		"tuner_frontier_space_bytes":          {tm.FrontierSpace.Value(), want.space},
		"tuner_budget_gap_bytes":              {tm.BudgetGap.Value(), want.gap},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, trace events give %v", name, c.got, c.want)
		}
	}
	for _, phase := range []string{"evaluate-initial", "optimal-config", "evaluate-optimal", "warm-start", "search"} {
		if got := tm.PhaseOptimizerCalls.Value(phase); got != want.phaseCalls[phase] {
			t.Errorf(`tuner_phase_optimizer_calls_total{phase=%q} = %v, trace events give %v`, phase, got, want.phaseCalls[phase])
		}
		delete(want.phaseCalls, phase)
	}
	if len(want.phaseCalls) != 0 {
		t.Errorf("trace attributes calls to unchecked phases: %v", want.phaseCalls)
	}
}

// num reads a numeric trace field as the instrumentation stored it.
func num(t *testing.T, v any) float64 {
	t.Helper()
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case nil:
		return 0
	}
	t.Fatalf("non-numeric trace field %T", v)
	return 0
}
