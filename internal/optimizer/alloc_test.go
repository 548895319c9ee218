package optimizer

import (
	"fmt"
	"sync"
	"testing"
)

// allocQuery is the workhorse shape for the allocation pins and
// benchmarks: a two-table join with a sargable range, a projection,
// and an ORDER BY, so one Optimize call walks access-path selection,
// join enumeration, and the interesting-order machinery.
const allocQuery = "SELECT r.b, u.x FROM r, u WHERE r.a = u.fk AND r.b < 100 ORDER BY r.b"

// TestOptimizeAllocsPinned pins the allocation count of a single
// what-if Optimize call. The batch scenarios make tens of thousands of
// these calls, so a per-call creep multiplies into the regression the
// alloc_bytes gate catches late; this pin catches it at the unit level.
// The bounds are ceilings with headroom for GC emptying the optCtx
// pool mid-measurement, not exact counts — moving one of them up in a
// change that doesn't intend to touch the hot path deserves a hard
// look.
func TestOptimizeAllocsPinned(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfg := baseCfg(db)
	q := mustBind(t, db, allocQuery)
	mustPlan(t, o, q, cfg) // warm the pool and the per-query block memo

	t.Run("no-hooks", func(t *testing.T) {
		avg := testing.AllocsPerRun(100, func() {
			if _, err := o.Optimize(q, cfg); err != nil {
				t.Fatal(err)
			}
		})
		// Re-costing calls build plan nodes for the winning candidates
		// but no request objects and no per-call maps: ~37 allocations
		// measured, pinned at 2× for pool-eviction headroom.
		const ceiling = 80
		if avg > ceiling {
			t.Errorf("Optimize without hooks allocates %.1f objects per call, ceiling %d", avg, ceiling)
		}
		t.Logf("Optimize without hooks: %.1f allocs/call", avg)
	})

	t.Run("with-hooks", func(t *testing.T) {
		var requests int
		o.SetHooks(&Hooks{
			OnIndexRequest: func(req *IndexRequest) { requests++ },
			OnViewRequest:  func(req *ViewRequest) { requests++ },
		})
		defer o.SetHooks(nil)
		if _, err := o.Optimize(q, cfg); err != nil { // warm again with hooks
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := o.Optimize(q, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if requests == 0 {
			t.Fatal("hooks installed but no requests fired; the pin is measuring the wrong path")
		}
		// Hooked calls additionally materialize one IndexRequest (plus
		// its S/N/O/A slices) per first-seen request: ~53 allocations
		// measured, pinned at 2× for pool-eviction headroom.
		const ceiling = 120
		if avg > ceiling {
			t.Errorf("Optimize with hooks allocates %.1f objects per call, ceiling %d", avg, ceiling)
		}
		t.Logf("Optimize with hooks: %.1f allocs/call", avg)
	})
}

// TestSharedOptimizerPoolSharing proves pooled optimization state never
// leaks across concurrent callers of one optimizer: many goroutines
// repeatedly optimize the same bound queries through it (so every
// goroutine keeps drawing previously-used scratch contexts from the
// shared pool) and every result must be bit-identical to the serial
// reference. This is how the tuner's per-query evaluation workers use
// the optimizer. Run under -race this also checks the pool handoff, the
// atomic counters, and the per-query block memo for data races.
func TestSharedOptimizerPoolSharing(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfg := baseCfg(db)

	queries := []*BoundQuery{
		mustBind(t, db, allocQuery),
		mustBind(t, db, "SELECT r.c FROM r WHERE r.b < 500 AND r.c = 3"),
		mustBind(t, db, "SELECT r.a, u.x FROM r, u WHERE r.a = u.fk GROUP BY r.a, u.x"),
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = mustPlan(t, o, q, cfg).Root.TotalCost().Total()
	}

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					p, err := o.Optimize(q, cfg)
					if err != nil {
						errs <- err
						return
					}
					if got := p.Root.TotalCost().Total(); got != want[i] {
						errs <- fmt.Errorf("worker %d round %d query %d: cost %v, serial reference %v", w, r, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared counters must not lose a call under contention.
	if got, want := o.Stats().OptimizeCalls, int64((1+workers*rounds)*len(queries)); !t.Failed() && got != want {
		t.Errorf("optimizer counted %d calls, want %d", got, want)
	}
}

// BenchmarkOptimize measures one what-if call on the two-table join —
// the unit of work the batch scenarios repeat thousands of times. CI
// runs it with -benchmem; the allocation figures are the per-call view
// of the alloc_bytes scenario gate.
func BenchmarkOptimize(b *testing.B) {
	db := testDB(b)
	o := New(db)
	cfg := baseCfg(db)
	q := mustBind(b, db, allocQuery)
	mustPlan(b, o, q, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeHooked is BenchmarkOptimize with the §2 request
// hooks installed, covering the request-materialization path the
// tuner's instrumented calls take.
func BenchmarkOptimizeHooked(b *testing.B) {
	db := testDB(b)
	o := New(db)
	cfg := baseCfg(db)
	o.SetHooks(&Hooks{
		OnIndexRequest: func(*IndexRequest) {},
		OnViewRequest:  func(*ViewRequest) {},
	})
	q := mustBind(b, db, allocQuery)
	mustPlan(b, o, q, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeParallel exercises the pooled scratch contexts under
// contention: GOMAXPROCS-many goroutines optimizing through one shared
// optimizer, drawing from the shared context pool.
func BenchmarkOptimizeParallel(b *testing.B) {
	db := testDB(b)
	o := New(db)
	cfg := baseCfg(db)
	q := mustBind(b, db, allocQuery)
	mustPlan(b, o, q, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := o.Optimize(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAllocFixtureCoversAccessPaths guards against the fixture
// drifting into something the pins silently stop covering: the base
// configuration must keep a clustered index per table so seeks, scans,
// and the INL probe path all stay reachable.
func TestAllocFixtureCoversAccessPaths(t *testing.T) {
	db := testDB(t)
	cfg := baseCfg(db)
	for _, tb := range db.Tables() {
		if cfg.ClusteredOn(tb.Name) == nil {
			t.Errorf("fixture table %s has no clustered index; the alloc pins would measure a degenerate plan space", tb.Name)
		}
	}
}
