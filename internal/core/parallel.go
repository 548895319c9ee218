package core

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
	"repro/internal/physical"
)

// This file is the parallel evaluation engine. Two independent fan-out
// layers share one worker budget (Options.Parallelism):
//
//  1. per-query what-if optimization: evalQueriesParallel spreads the
//     workload's queries over a pool; the reentrant optimizer and the
//     sizer (a lock-free memo) are shared, the §3.3.2 plan-reuse counters
//     are atomic, and the weighted cost is reduced in query order so the
//     total is bit-identical to the serial loop.
//  2. §3.3.2 penalty estimation: precomputeDeltas bounds every untried
//     candidate's (ΔT, ΔS) concurrently. Each bound builds the relaxed
//     configuration, copying only the relation the candidate edits, and
//     otherwise reads shared state; the only optimizer calls are
//     singleflighted CBV computations.
//
// Each relaxation step evaluates only the configuration the penalty
// ranking chose (§3.3.2); parallelism shortens that evaluation but never
// adds evaluations of other configurations.
//
// Determinism argument, layer by layer: (1) per-query costs are
// non-negative, so the serial prefix-abort of §3.5 prunes a
// configuration iff the full in-order sum exceeds the cutoff — the
// parallel path computes all results, sums in query order (bit-identical
// float sequence), and applies the same predicate; the cooperative early
// abort uses a relative margin so it can only fire on configurations the
// deterministic check would prune anyway. (2) candidate deltas are
// independent math: computing them concurrently changes wall time, not
// values.

// atomicFloat is a CAS-looped float64 accumulator for the cooperative
// §3.5 running cost.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) float64 {
	for {
		old := f.bits.Load()
		nv := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return nv
		}
	}
}

// shortcutMargin pads the cooperative abort threshold so the unordered
// running sum can only trigger a prune the deterministic in-order check
// would also make (float summation order changes the value by parts in
// 1e-13; the margin is orders of magnitude above that and orders of
// magnitude below any meaningful cost difference).
const shortcutMargin = 1e-9

// evalQueriesParallel fans the per-query optimization of one
// configuration over a worker pool. Result ordering, cost reduction
// order, and the §3.5 prune decision match evalQueriesSerial exactly.
func (t *Tuner) evalQueriesParallel(parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string, cutoff float64, workers int) (*EvaluatedConfig, bool, error) {
	n := len(t.Queries)
	if workers > n {
		workers = n
	}
	ec := &EvaluatedConfig{Config: cfg, SizeBytes: t.Opt.Sizer().ConfigBytes(cfg)}
	shortcut := cutoff > 0 && !t.Options.DisableShortcut
	results := make([]*optimizer.QueryResult, n)
	errs := make([]error, n)
	var (
		next    atomic.Int64
		running atomicFloat
		pruned  atomic.Bool
		failed  atomic.Bool
		wg      sync.WaitGroup
	)
	prof := t.Options.Profile
	label := "evaluate"
	if parent != nil {
		label = "search/evaluate"
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if prof.Enabled() {
				defer prof.Since(label+"/worker-"+strconv.Itoa(w), time.Now())
			}
			for {
				if failed.Load() || pruned.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res, err := t.evalOneQuery(i, parent, cfg, removedIdx, removedViews)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = res
				if shortcut {
					// Cooperative §3.5 abort: once the running total
					// clearly exceeds the cutoff the remaining queries
					// cannot rescue this configuration.
					if running.add(t.Queries[i].Query.Weight*res.TotalCost()) > cutoff*(1+shortcutMargin) {
						pruned.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, false, err
			}
		}
	}
	if pruned.Load() {
		return nil, false, nil
	}
	// Deterministic reduction: summing the weighted costs in query order
	// reproduces the serial float sequence bit for bit, and the prune
	// predicate below is exactly the serial one.
	for i, tq := range t.Queries {
		ec.Results = append(ec.Results, results[i])
		ec.Cost += tq.Query.Weight * results[i].TotalCost()
		if shortcut && ec.Cost > cutoff {
			return nil, false, nil
		}
	}
	return ec, true, nil
}

// precomputeDeltas bounds every untried candidate of node that does not
// yet carry a (ΔT, ΔS) estimate, chunked across workers. Candidates
// whose bound fails are marked tried, exactly as the serial loop does.
func (t *Tuner) precomputeDeltas(node *searchNode, workers int) {
	var missing []*physical.Transformation
	for _, tr := range node.trans {
		if node.tried[tr.ID()] {
			continue
		}
		if _, ok := node.deltas[tr.ID()]; ok {
			continue
		}
		missing = append(missing, tr)
	}
	if len(missing) < 2 {
		return
	}
	if workers > len(missing) {
		workers = len(missing)
	}
	deltas := make([]Delta, len(missing))
	errs := make([]error, len(missing))
	var next atomic.Int64
	var wg sync.WaitGroup
	prof := t.Options.Profile
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if prof.Enabled() {
				defer prof.Since("search/penalty/worker-"+strconv.Itoa(w), time.Now())
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(missing) {
					return
				}
				deltas[i], errs[i] = t.boundDelta(node.eval, missing[i])
			}
		}(w)
	}
	wg.Wait()
	for i, tr := range missing {
		if errs[i] != nil {
			node.markTried(tr.ID())
			continue
		}
		node.deltas[tr.ID()] = deltas[i]
	}
}
