package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// wsWorkload builds a small SELECT workload used by the warm-start tests.
func wsWorkload(t *testing.T, extra ...string) *workloads.Workload {
	t.Helper()
	sqls := []string{
		`SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 AND o_orderdate < 9496 GROUP BY o_orderpriority`,
		`SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > 400000`,
		`SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN 9131 AND 9496 GROUP BY l_shipmode`,
	}
	sqls = append(sqls, extra...)
	w, err := workloads.FromStatements("warmstart", "tpch", sqls)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return w
}

// TestRequestCacheReuse: a second session over the same workload must
// reuse every cached fragment, produce the identical optimal
// configuration, and issue zero instrumented-optimization calls for the
// cached statements.
func TestRequestCacheReuse(t *testing.T) {
	db := datagen.TPCH(0.001)
	cache := NewRequestCache()

	w := wsWorkload(t)
	tn1, err := NewTuner(db, w, Options{Cache: cache})
	if err != nil {
		t.Fatalf("tuner1: %v", err)
	}
	cfg1, err := tn1.OptimalConfiguration()
	if err != nil {
		t.Fatalf("optimal1: %v", err)
	}
	s1 := cache.Stats()
	if s1.Entries != len(w.Queries) || s1.Misses != int64(len(w.Queries)) {
		t.Fatalf("cold run: got %d entries / %d misses, want %d", s1.Entries, s1.Misses, len(w.Queries))
	}
	if s1.CallsSpent <= 0 {
		t.Fatalf("cold run spent no optimizer calls")
	}

	tn2, err := NewTuner(db, w, Options{Cache: cache})
	if err != nil {
		t.Fatalf("tuner2: %v", err)
	}
	calls0 := tn2.Opt.Stats().OptimizeCalls
	cfg2, err := tn2.OptimalConfiguration()
	if err != nil {
		t.Fatalf("optimal2: %v", err)
	}
	if got := tn2.Opt.Stats().OptimizeCalls - calls0; got != 0 {
		t.Errorf("warm run issued %d optimizer calls, want 0", got)
	}
	if cfg1.Fingerprint() != cfg2.Fingerprint() {
		t.Errorf("cached optimal configuration differs:\n%s\nvs\n%s", cfg1, cfg2)
	}
	s2 := cache.Stats()
	if s2.Hits != int64(len(w.Queries)) {
		t.Errorf("warm run: got %d hits, want %d", s2.Hits, len(w.Queries))
	}
	if s2.CallsSaved != s1.CallsSpent {
		t.Errorf("calls saved %d != calls spent %d", s2.CallsSaved, s1.CallsSpent)
	}
}

// TestRequestCachePartialHit: growing the workload only pays for the new
// statement.
func TestRequestCachePartialHit(t *testing.T) {
	db := datagen.TPCH(0.001)
	cache := NewRequestCache()

	tn1, err := NewTuner(db, wsWorkload(t), Options{Cache: cache})
	if err != nil {
		t.Fatalf("tuner1: %v", err)
	}
	if _, err := tn1.OptimalConfiguration(); err != nil {
		t.Fatalf("optimal1: %v", err)
	}

	grown := wsWorkload(t,
		`SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 5000`)
	tn2, err := NewTuner(db, grown, Options{Cache: cache})
	if err != nil {
		t.Fatalf("tuner2: %v", err)
	}
	if _, err := tn2.OptimalConfiguration(); err != nil {
		t.Fatalf("optimal2: %v", err)
	}
	s := cache.Stats()
	if s.Hits != 3 || s.Misses != 4 {
		t.Errorf("got %d hits / %d misses, want 3 / 4", s.Hits, s.Misses)
	}
	if s.Entries != 4 {
		t.Errorf("got %d cache entries, want 4", s.Entries)
	}
}

// TestSharedCacheSessionAccounting: sessions that share one request
// cache and tune concurrently (the fleet case) must each report only
// their own fragment-cache activity. Every session's economy has to
// match the cached/uncached fragments its own trace records, and the
// sessions together must account for every hit and saved call the
// cache counted.
func TestSharedCacheSessionAccounting(t *testing.T) {
	db := datagen.TPCH(0.001)
	cache := NewRequestCache()
	sessions := []*workloads.Workload{
		wsWorkload(t),
		wsWorkload(t, `SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 5000`),
	}
	const rounds = 8
	var mu sync.Mutex
	var hits, saved int64
	var wg sync.WaitGroup
	for g, w := range sessions {
		wg.Add(1)
		go func(g int, w *workloads.Workload) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mem := obs.NewMemorySink()
				tn, err := NewTuner(db, w, Options{
					Cache: cache, CacheOrigin: fmt.Sprint("tenant-", g),
					NoViews: true, SpaceBudget: 1 << 20, MaxIterations: 2, Parallelism: 1,
					Trace: obs.NewTracer(mem),
				})
				if err != nil {
					t.Errorf("session %d/%d: %v", g, r, err)
					return
				}
				res, err := tn.Tune()
				if err != nil {
					t.Errorf("session %d/%d: %v", g, r, err)
					return
				}
				var cached, derived int64
				for _, e := range mem.Events() {
					if e.Type != obs.EvFragment {
						continue
					}
					if e.Fields["cached"].(bool) {
						cached++
					} else {
						derived++
					}
				}
				e := res.Economy
				if e.CacheHits != cached || e.CacheMisses != derived {
					t.Errorf("session %d/%d: economy counts %d hits / %d misses, its trace %d cached / %d derived fragments",
						g, r, e.CacheHits, e.CacheMisses, cached, derived)
				}
				if cached+derived != int64(len(w.Queries)) {
					t.Errorf("session %d/%d: %d fragments traced for %d statements", g, r, cached+derived, len(w.Queries))
				}
				mu.Lock()
				hits += e.CacheHits
				saved += e.CacheCallsSaved
				mu.Unlock()
			}
		}(g, w)
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits != hits || st.CallsSaved != saved {
		t.Errorf("sessions account %d hits / %d saved calls, cache counted %d / %d", hits, saved, st.Hits, st.CallsSaved)
	}
}

// TestWarmStartTune: retuning the same workload with the previous
// recommendation as warm start must cost strictly fewer optimizer calls
// and recommend a configuration at least as good.
func TestWarmStartTune(t *testing.T) {
	db := datagen.TPCH(0.001)
	w := wsWorkload(t)
	cache := NewRequestCache()
	opts := Options{SpaceBudget: 2 << 20, MaxIterations: 40, Cache: cache}

	tn1, err := NewTuner(db, w, opts)
	if err != nil {
		t.Fatalf("tuner1: %v", err)
	}
	cold, err := tn1.Tune()
	if err != nil {
		t.Fatalf("cold tune: %v", err)
	}

	warmOpts := opts
	warmOpts.WarmStart = cold.Best.Config
	tn2, err := NewTuner(db, w, warmOpts)
	if err != nil {
		t.Fatalf("tuner2: %v", err)
	}
	warm, err := tn2.Tune()
	if err != nil {
		t.Fatalf("warm tune: %v", err)
	}

	t.Logf("cold: cost=%.1f calls=%d; warm: cost=%.1f calls=%d",
		cold.Best.Cost, cold.OptimizerCalls, warm.Best.Cost, warm.OptimizerCalls)
	if warm.OptimizerCalls >= cold.OptimizerCalls {
		t.Errorf("warm retune did not save optimizer calls: %d >= %d",
			warm.OptimizerCalls, cold.OptimizerCalls)
	}
	if warm.Best.Cost > cold.Best.Cost+1e-9 {
		t.Errorf("warm retune recommendation worse than cold: %.3f > %.3f",
			warm.Best.Cost, cold.Best.Cost)
	}
	if warm.Best.SizeBytes > opts.SpaceBudget {
		t.Errorf("warm recommendation exceeds budget: %d > %d", warm.Best.SizeBytes, opts.SpaceBudget)
	}
}

// TestCacheDeterminism: with and without the cache, the optimal
// configuration and the tuned recommendation are identical.
func TestCacheDeterminism(t *testing.T) {
	db := datagen.TPCH(0.001)
	w := wsWorkload(t)
	opts := Options{SpaceBudget: 2 << 20, MaxIterations: 40}

	plain, err := NewTuner(db, w, opts)
	if err != nil {
		t.Fatalf("tuner: %v", err)
	}
	resPlain, err := plain.Tune()
	if err != nil {
		t.Fatalf("plain tune: %v", err)
	}

	cache := NewRequestCache()
	optsC := opts
	optsC.Cache = cache
	// Prime the cache with a first session, then tune a second one from it.
	prime, err := NewTuner(db, w, optsC)
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if _, err := prime.OptimalConfiguration(); err != nil {
		t.Fatalf("prime optimal: %v", err)
	}
	cached, err := NewTuner(db, w, optsC)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	resCached, err := cached.Tune()
	if err != nil {
		t.Fatalf("cached tune: %v", err)
	}

	if resPlain.Best.Config.Fingerprint() != resCached.Best.Config.Fingerprint() {
		t.Errorf("cache changed the recommendation:\n%s\nvs\n%s",
			resPlain.Best.Config, resCached.Best.Config)
	}
	if math.Abs(resPlain.Best.Cost-resCached.Best.Cost) > 1e-9 {
		t.Errorf("cache changed the recommended cost: %.6f vs %.6f",
			resPlain.Best.Cost, resCached.Best.Cost)
	}
}
