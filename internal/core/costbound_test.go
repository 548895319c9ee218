package core

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/workloads"
)

// TestBoundDeltaIsUpperBound validates the central §3.3.2 guarantee: the
// transformation cost bound, computed without re-optimizing, is an upper
// bound on the actual cost increase observed when the relaxed
// configuration is evaluated for real.
func TestBoundDeltaIsUpperBound(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{
		NoViews:    true,
		HeapTables: tn.heapTables,
	})
	if len(trs) == 0 {
		t.Fatal("no transformations to test")
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	if len(trs) > 40 {
		trs = trs[:40]
	}
	checked := 0
	for _, tr := range trs {
		d, err := tn.BoundDelta(ec, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		after, ok, err := tn.EvaluateIncremental(ec, tr.Apply(optCfg), tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !ok {
			continue
		}
		actual := after.Cost - ec.Cost
		if actual > d.DT+1e-6+0.001*ec.Cost {
			t.Errorf("%s: actual increase %.3f exceeds bound %.3f", tr, actual, d.DT)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few transformations checked: %d", checked)
	}
}

// TestBoundDeltaWithViews exercises the view-merge and view-removal
// bounds the same way.
func TestBoundDeltaWithViews(t *testing.T) {
	tn := tpchTuner(t, Options{})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{
		HeapTables: tn.heapTables,
		WidthOf:    tn.viewWidthFn(),
	})
	var viewTrs []*physical.Transformation
	for _, tr := range trs {
		if tr.Kind == physical.TransMergeViews || tr.Kind == physical.TransRemoveView {
			if tr.VM != nil && tr.VM.EstRows == 0 {
				tr.VM.EstRows = tn.Opt.EstimateViewRows(tr.VM)
			}
			viewTrs = append(viewTrs, tr)
		}
	}
	if len(viewTrs) == 0 {
		t.Fatal("no view transformations enumerated")
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(viewTrs), func(i, j int) { viewTrs[i], viewTrs[j] = viewTrs[j], viewTrs[i] })
	if len(viewTrs) > 25 {
		viewTrs = viewTrs[:25]
	}
	violations, checked := 0, 0
	for _, tr := range viewTrs {
		d, err := tn.BoundDelta(ec, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		after, ok, err := tn.EvaluateIncremental(ec, tr.Apply(optCfg), tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !ok {
			continue
		}
		checked++
		actual := after.Cost - ec.Cost
		if actual > d.DT+1e-6+0.02*ec.Cost {
			violations++
			t.Logf("%s: actual %.3f > bound %.3f", tr, actual, d.DT)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	// View bounds involve approximations (merged-view cardinalities,
	// compensation costs); allow a small violation rate but not a broken
	// estimator.
	if violations*5 > checked {
		t.Errorf("view bound violated too often: %d of %d", violations, checked)
	}
}

// TestBoundDeltaSpaceSavings: ΔS, which boundDelta takes from the
// structures a transformation removes and adds, equals the measured size
// difference Space(C) − Space(tr(C)) for every transformation enumerated
// on the §2 optimal configurations of TPC-H (views off and on) and of the
// bench update mix, and on configurations a few relaxation steps in,
// where merged indexes and merged views are present. Every update shell
// boundDelta skips as untouched costs exactly what it did before.
func TestBoundDeltaSpaceSavings(t *testing.T) {
	benchDB := datagen.Bench(0.001)
	gen := workloads.DefaultGenOptions("bench-updates", 42, 30)
	gen.UpdateFraction = 0.3
	benchW, err := workloads.Generate(benchDB, gen)
	if err != nil {
		t.Fatal(err)
	}
	benchTuner := func(opts Options) *Tuner {
		tn, err := NewTuner(benchDB, benchW, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	for _, tc := range []struct {
		name string
		tn   *Tuner
	}{
		{"tpch", tpchTuner(t, Options{NoViews: true})},
		{"tpch-views", tpchTuner(t, Options{})},
		{"bench-updates", benchTuner(Options{NoViews: true})},
		{"bench-updates-views", benchTuner(Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := tc.tn
			cfg, err := tn.OptimalConfiguration()
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[physical.TransKind]int{}
			untouchedShells := 0
			merged := map[physical.TransKind]bool{}
			for step := 0; step < 4; step++ {
				ec, err := tn.Evaluate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// newSearchNode enumerates as the search does, merged-view
				// cardinalities included.
				node := tn.newSearchNode(ec, nil, 0)
				for _, tr := range node.trans {
					d, err := tn.BoundDelta(ec, tr)
					if err != nil {
						t.Fatalf("step %d, %s: %v", step, tr, err)
					}
					after := tr.Apply(cfg)
					if want := ec.SizeBytes - tn.Opt.Sizer().ConfigBytes(after); d.DS != want {
						t.Errorf("step %d, %s: ΔS = %d, want %d", step, tr, d.DS, want)
					}
					for i, tq := range tn.Queries {
						if !tq.Bound.IsUpdate() || touchesShell(cfg, tr, tq.Bound.UpdateTable) {
							continue
						}
						res := ec.Results[i]
						if got := tn.Opt.UpdateShellCost(tq.Bound, after, res.AffectedRows); got != res.UpdateCost {
							t.Errorf("step %d, %s: skipped shell of %s moves %v → %v", step, tr, tq.Query.ID, res.UpdateCost, got)
						}
						untouchedShells++
					}
					kinds[tr.Kind]++
				}
				// Relax one step, alternating between merging two indexes
				// and (with views on) merging two views.
				order := []physical.TransKind{physical.TransMergeIndexes, physical.TransMergeViews}
				if step%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
			relax:
				for _, kind := range order {
					for _, tr := range node.trans {
						if tr.Kind == kind {
							cfg = tr.Apply(cfg)
							merged[kind] = true
							break relax
						}
					}
				}
			}
			t.Logf("checked %v and %d untouched update shells", kinds, untouchedShells)
			if tn.hasUpdates() && untouchedShells == 0 {
				t.Error("no untouched update shell was checked")
			}
			if !merged[physical.TransMergeIndexes] {
				t.Error("no merged index was ever present")
			}
			if tn.Options.NoViews {
				return
			}
			if !merged[physical.TransMergeViews] {
				t.Error("no merged view was ever present")
			}
			for _, k := range []physical.TransKind{physical.TransMergeViews, physical.TransRemoveView} {
				if kinds[k] == 0 {
					t.Errorf("no %s transformation was checked", k)
				}
			}
		})
	}
}

// TestCostFromBaseCached: CBV computations are cached by signature.
func TestCostFromBaseCached(t *testing.T) {
	tn := tpchTuner(t, Options{})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	views := optCfg.Views()
	if len(views) == 0 {
		t.Skip("no views in optimal configuration")
	}
	v := views[0]
	before := tn.Opt.Stats().OptimizeCalls
	c1, err := tn.costFromBase(v)
	if err != nil {
		t.Fatal(err)
	}
	mid := tn.Opt.Stats().OptimizeCalls
	c2, err := tn.costFromBase(v)
	if err != nil {
		t.Fatal(err)
	}
	after := tn.Opt.Stats().OptimizeCalls
	if c1 != c2 {
		t.Errorf("cached CBV differs: %g vs %g", c1, c2)
	}
	if mid == before {
		t.Error("first CBV should call the optimizer")
	}
	if after != mid {
		t.Error("second CBV should hit the cache")
	}
}

// TestBoundDeltaAllocsPinned pins the allocations of warm §3.3.2 bounds:
// every transformation of the index-only TPC-H optimal node, bounded a
// second time. Sessions compute thousands of these per iteration, so a
// per-call creep shows here before it shows in alloc_mb. A merge, the
// commonest kind, makes three allocations (the relaxed configuration,
// its relation list and the one relation it edits); splits rebuild
// their split indexes per usage and cost more.
func TestBoundDeltaAllocsPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := tn.newSearchNode(ec, nil, 0).trans
	sweep := func() {
		for _, tr := range trs {
			if _, err := tn.boundDelta(ec, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // warm the sizer memo
	perCall := testing.AllocsPerRun(20, sweep) / float64(len(trs))
	// Measured 4.40 over the node's 542 transformations (2386 per sweep).
	const ceiling = 4.41
	if perCall > ceiling {
		t.Errorf("warm boundDelta allocates %.2f objects per call over %d transformations, ceiling %.2f", perCall, len(trs), ceiling)
	}
	t.Logf("warm boundDelta: %.2f allocs/call over %d transformations", perCall, len(trs))
}
