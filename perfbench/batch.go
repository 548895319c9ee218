package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// batch is a set-up batch workload: sessions of NewTuner + Tune run
// back to back by one client (a closed loop).
type batch struct {
	name   string
	spec   *batchSpec
	budget int64
	opts   core.Options
}

// setupBatch generates the inputs, derives the budget from a probe
// session's base and optimal configurations, and warms the process up
// with one full session. A non-nil log records the set-up's spans.
func setupBatch(name string, seed int64, log *spanLog) (*batch, error) {
	trace := log.newID()
	root, endRoot := log.start(trace, 0, "setup")
	defer endRoot()
	spec, err := batchInputs(name, seed, trace, root, log)
	if err != nil {
		return nil, err
	}
	b := &batch{name: name, spec: spec, opts: core.Options{NoViews: true}}
	if b.budget, err = budgetFor(spec.db, spec.w, b.opts, trace, root, log); err != nil {
		return nil, err
	}
	b.opts.SpaceBudget = b.budget
	if _, err := b.session(0, 0, nil, trace, root, log); err != nil {
		return nil, fmt.Errorf("warm-up session: %w", err)
	}
	return b, nil
}

// budgetFor applies the budget rule to w, sizing the base and §2
// optimal configurations of a probe tuner. A non-nil log records a span
// around every call, under parent.
func budgetFor(db *catalog.Database, w *workloads.Workload, opts core.Options, trace, parent int64, log *spanLog) (int64, error) {
	_, end := log.start(trace, parent, "core.NewTuner")
	probe, err := core.NewTuner(db, w, opts)
	end()
	if err != nil {
		return 0, err
	}
	_, end = log.start(trace, parent, "core.Tuner.OptimalConfiguration")
	optCfg, err := probe.OptimalConfiguration()
	end()
	if err != nil {
		return 0, err
	}
	sizer := probe.Opt.Sizer()
	_, end = log.start(trace, parent, "physical.Sizer.ConfigBytes")
	base, optimum := sizer.ConfigBytes(probe.Base), sizer.ConfigBytes(optCfg)
	end()
	return budgetBetween(base, optimum), nil
}

// budgetBetween is the budget rule: base + (optimum − base)/k.
func budgetBetween(base, optimum int64) int64 {
	return base + (optimum-base)/budgetDivisor
}

// sessionOut is one tuning session's outcome and measurements.
type sessionOut struct {
	variant int
	res     *core.Result
	wall    time.Duration
	cpu     time.Duration // process CPU time, all threads
	alloc   uint64
	prof    *obs.ProfileReport
}

// session times NewTuner + Tune on the workload under weight vector v at
// the given Parallelism. A non-nil prof profiles the session's phases; a
// non-nil log records a span around every call, under root.
func (b *batch) session(v, parallelism int, prof *obs.Profiler, trace, root int64, log *spanLog) (*sessionOut, error) {
	qs, weights := b.spec.w.Queries, b.spec.weights[v]
	w := &workloads.Workload{Name: b.name, Database: b.spec.db.Name, Queries: make([]*workloads.Query, len(qs))}
	for i, q := range qs {
		w.Queries[i] = &workloads.Query{ID: q.ID, SQL: q.SQL, Stmt: q.Stmt, Weight: weights[i]}
	}
	opts := b.opts
	opts.Parallelism = parallelism
	opts.Profile = prof
	out := &sessionOut{variant: v}
	alloc0 := obs.HeapAllocBytes()
	cpu0 := cpuTime()
	t0 := time.Now()
	_, end := log.start(trace, root, "core.NewTuner")
	tn, err := core.NewTuner(b.spec.db, w, opts)
	end()
	if err != nil {
		return nil, err
	}
	_, end = log.start(trace, root, "core.Tuner.Tune")
	res, err := tn.Tune()
	end()
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	out.alloc = obs.HeapAllocBytes() - alloc0
	if err != nil {
		return nil, err
	}
	out.res = res
	if prof != nil {
		out.prof = prof.Snapshot()
		out.prof.WallSeconds = out.wall.Seconds()
	}
	return out, nil
}

// rootSession runs a session as a trace of its own, under a root span
// named after its Parallelism (no spans when log is nil).
func (b *batch) rootSession(v, parallelism int, prof *obs.Profiler, log *spanLog) (*sessionOut, error) {
	trace := log.newID()
	root, end := log.start(trace, 0, fmt.Sprintf("session (Parallelism %d)", parallelism))
	defer end()
	return b.session(v, parallelism, prof, trace, root, log)
}

// outcome is what two tunings of the same inputs must agree on, at any
// Parallelism. Optimizer calls and §2 request counts are left out: with
// more than one worker, speculative evaluation makes them depend on
// scheduling.
type outcome struct {
	fingerprint string
	cost        float64
	iterations  int
	samples     int
}

func outcomeOf(res *core.Result) outcome {
	return outcome{
		fingerprint: res.Best.Config.Fingerprint(),
		cost:        res.Best.Cost,
		iterations:  res.Iterations,
		samples:     len(res.CalibSamples),
	}
}

// checkSame fails when a tuning of inputs already tuned differs from
// the first tuning of them.
func checkSame(first, again outcome) error {
	if first != again {
		return fmt.Errorf("same inputs tuned differently: first %s, now %s", first, again)
	}
	return nil
}

func (o outcome) String() string {
	fp := o.fingerprint
	if len(fp) > 24 {
		fp = fp[:24] + "…"
	}
	return fmt.Sprintf("{fp %s cost %.6g iterations %d calibration samples %d}", fp, o.cost, o.iterations, o.samples)
}

// checkSession runs the recommendation checks on one session.
func (b *batch) checkSession(r *report, s *sessionOut, first map[int]outcome) {
	res := s.res
	errs := []error{
		checkBudget(res.Best.SizeBytes, b.budget),
		checkCost(res.Best.Cost, res.Initial.Cost),
		checkDemanded(res.Explain, nil),
	}
	o := outcomeOf(res)
	if f, ok := first[s.variant]; ok {
		errs = append(errs, checkSame(f, o))
	} else {
		first[s.variant] = o
	}
	r.op(fmt.Sprintf("session (weights %d)", s.variant), errs...)
}

// runBatch measures a batch workload for the given time. Untraced, it
// reports the end-to-end metrics. Traced, sessions alternate between
// untraced and traced (profiler on, spans recorded) on the same inputs,
// a Parallelism 1 leg follows, then the layer sweep.
func runBatch(r *report, b *batch, seconds float64, log *spanLog) error {
	traced := log != nil
	first := map[int]outcome{}
	calls := map[int]int64{}
	var plain, withTrace []*sessionOut
	var refS []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		v := i % variants
		var prof *obs.Profiler
		var l *spanLog
		if traced {
			v = (i / 2) % variants
			if i%2 == 1 {
				prof, l = obs.NewProfiler(), log
			}
		}
		// referenceCPU collects the heap first, so each session starts
		// on a heap holding only the reference's few megabytes of
		// garbage, as a fresh process would, and the previous session's
		// garbage does not tax it.
		refS = append(refS, referenceCPU().Seconds())
		s, err := b.rootSession(v, 0, prof, l)
		if err != nil {
			r.op("session", err)
			continue
		}
		b.checkSession(r, s, first)
		if _, ok := calls[v]; !ok {
			calls[v] = s.res.OptimizerCalls
		}
		if prof != nil {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
		}
	}
	if !traced {
		sessionMetrics(r, plain, refS)
		return nil
	}
	layerMetrics(r, withTrace)
	cpuMetrics(r, cpus(plain), refS)
	r.set("wall.tune_s_p50", "s", median(walls(plain)), len(plain))
	r.set("obs.trace_overhead_pct", "%", pct(median(walls(withTrace))-median(walls(plain)), median(walls(plain))), len(withTrace))
	b.serialLeg(r, first, calls, log)
	return sweep(r, b.spec.db, b.spec.w, b.opts, log)
}

// serialLeg tunes every weight vector seen at Parallelism 1 and checks
// the recommendation equals the default-Parallelism one; it reports the
// extra optimizer calls the default Parallelism spent (calls holds them
// per weight vector).
func (b *batch) serialLeg(r *report, first map[int]outcome, calls map[int]int64, log *spanLog) {
	var serialCalls, defaultCalls float64
	compared := 0
	for v := 0; v < variants; v++ {
		f, ok := first[v]
		if !ok {
			continue
		}
		runtime.GC()
		s, err := b.rootSession(v, 1, nil, log)
		if !r.op(fmt.Sprintf("Parallelism 1 leg (weights %d)", v), err) {
			continue
		}
		if r.op(fmt.Sprintf("Parallelism 1 equivalence (weights %d)", v), checkSame(f, outcomeOf(s.res))) {
			serialCalls += float64(s.res.OptimizerCalls)
			defaultCalls += float64(calls[v])
			compared++
		}
	}
	r.set("core.parallel_extra_calls_pct", "%", pct(defaultCalls-serialCalls, serialCalls), compared)
}

// tuneMetrics reports the end-to-end metrics of tuning sessions or
// retunes from their CPU seconds and the reference computation's (refS).
// CPU time is a median, reported as a multiple of the reference's.
// Counts are means: they are multimodal across inputs (batch-tpch weight
// vectors need either ~440 or ~600 optimizer calls; daemon retunes
// differ by drift phase), so a median jumps between modes from one seed
// to the next.
func tuneMetrics(r *report, cpuS, refS, calls, impr, allocMB []float64) {
	r.set("tune_cpu_ref_p50", "ref", median(cpuS)/median(refS), len(cpuS))
	r.set("optimizer_calls_mean", "calls", mean(calls), len(calls))
	r.set("improvement_pct", "%", mean(impr), len(impr))
	r.set("alloc_mb", "MB", mean(allocMB), len(allocMB))
	r.notef("CPU time: p50 %.3f s per session or retune over %d, p50 %.3f ms per reference computation over %d",
		median(cpuS), len(cpuS), 1000*median(refS), len(refS))
}

// cpuMetrics reports, in a traced run, the two CPU times tune_cpu_ref_p50
// divides: untraced sessions' or retunes' and the reference's.
func cpuMetrics(r *report, cpuS, refS []float64) {
	r.set("bench.tune_cpu_s_p50", "s", median(cpuS), len(cpuS))
	r.set("bench.reference_cpu_ms_p50", "ms", 1000*median(refS), len(refS))
}

// sessionMetrics reports the end-to-end metrics of untraced sessions.
func sessionMetrics(r *report, ss []*sessionOut, refS []float64) {
	var calls, impr, alloc []float64
	for _, s := range ss {
		calls = append(calls, float64(s.res.OptimizerCalls))
		impr = append(impr, s.res.ImprovementPct())
		alloc = append(alloc, float64(s.alloc)/(1<<20))
	}
	tuneMetrics(r, cpus(ss), refS, calls, impr, alloc)
	r.notef("wall time per session: p50 %.3f s over %d sessions", median(walls(ss)), len(ss))
}

func walls(ss []*sessionOut) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

func cpus(ss []*sessionOut) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.cpu.Seconds()
	}
	return out
}

// layerMetrics reports the per-layer metrics of profiled sessions: the
// profiler's phase split plus the counters on core.Result.
func layerMetrics(r *report, ss []*sessionOut) {
	var phases []*obs.ProfileReport
	var counts []counters
	var wallMS []float64
	for _, s := range ss {
		phases = append(phases, s.prof)
		counts = append(counts, counters{
			calib: s.res.Explain.Calibration, calls: s.res.OptimizerCalls, iterations: s.res.Iterations,
			indexReq: s.res.IndexRequests, viewReq: s.res.ViewRequests,
		})
		wallMS = append(wallMS, s.wall.Seconds()*1000)
	}
	phaseMetrics(r, phases, wallMS)
	counterMetrics(r, counts)
	// Batch sessions use no fragment cache, service or open-loop client.
	for _, name := range []string{"core.fragment_cache_hit_pct", "service.warm_start_pct"} {
		r.set(name, "%", 0, 0)
	}
	r.set("workloads.window_unique", "count", 0, 0)
	for _, name := range []string{"service.retune_ms", "wall.ingest_p50_ms", "wall.ingest_p99_ms", "bench.generator_late_ms_p99"} {
		r.set(name, "ms", 0, 0)
	}
}

// phaseMetrics reports medians of the profiled phases, one profile per
// session or retune, against the measured wall time of each.
func phaseMetrics(r *report, profs []*obs.ProfileReport, wallMS []float64) {
	var rank, share, bounds, eval, optimal, enum, sky, pick, cover []float64
	for i, p := range profs {
		rank = append(rank, phaseMS(p, "search/rank"))
		share = append(share, pct(phaseMS(p, "search/rank"), wallMS[i]))
		bounds = append(bounds, penaltyCalls(p))
		eval = append(eval, phaseMS(p, "search/evaluate"))
		optimal = append(optimal, phaseMS(p, "optimal-config"))
		enum = append(enum, phaseMS(p, "search/enumerate")+phaseMS(p, "enumerate-root"))
		sky = append(sky, phaseMS(p, "search/skyline"))
		pick = append(pick, phaseMS(p, "search/pick-node"))
		cover = append(cover, pct(p.TopLevelSeconds*1000, wallMS[i]))
	}
	n := len(profs)
	r.set("core.rank_ms", "ms", median(rank), n)
	r.set("core.rank_share_pct", "%", median(share), n)
	r.set("core.bound_calls", "count", median(bounds), n)
	r.set("core.evaluate_ms", "ms", median(eval), n)
	r.set("core.optimal_config_ms", "ms", median(optimal), n)
	r.set("core.enumerate_ms", "ms", median(enum), n)
	r.set("core.skyline_ms", "ms", median(sky), n)
	r.set("core.pick_node_ms", "ms", median(pick), n)
	r.set("obs.profile_coverage_pct", "%", median(cover), n)
}

// counters are one tuning session's work counts: the explain report's
// calibration (bound tightness and the optimizer-call economy) plus the
// session totals.
type counters struct {
	calib             *obs.CalibrationReport
	calls             int64
	iterations        int
	indexReq, viewReq int64
}

// counterMetrics reports the medians of the sessions' counters.
func counterMetrics(r *report, cs []counters) {
	var tight, viol, calls, reused, prunes, dups, evalHit, idxReq, viewReq, iters []float64
	for _, c := range cs {
		if c.calib != nil {
			e := c.calib.Economy
			tight = append(tight, c.calib.Overall.MeanRatio)
			viol = append(viol, float64(c.calib.Overall.BoundViolations))
			reused = append(reused, 100*e.ReuseRatio())
			prunes = append(prunes, float64(e.ShortcutPrunes))
			dups = append(dups, float64(e.DuplicateSkips))
			evalHit = append(evalHit, pct(float64(e.EvalCacheHits), float64(e.EvalCacheHits+e.EvalCacheMisses)))
		}
		calls = append(calls, float64(c.calls))
		idxReq = append(idxReq, float64(c.indexReq))
		viewReq = append(viewReq, float64(c.viewReq))
		iters = append(iters, float64(c.iterations))
	}
	r.set("core.bound_tightness_mean", "ratio", median(tight), len(tight))
	r.set("core.bound_violations", "count", median(viol), len(viol))
	r.set("optimizer.plans_reused_pct", "%", median(reused), len(reused))
	r.set("core.shortcut_prunes", "count", median(prunes), len(prunes))
	r.set("core.duplicate_skips", "count", median(dups), len(dups))
	r.set("core.eval_cache_hit_pct", "%", median(evalHit), len(evalHit))
	r.set("optimizer.calls", "calls", median(calls), len(calls))
	r.set("core.index_requests", "count", median(idxReq), len(idxReq))
	r.set("core.view_requests", "count", median(viewReq), len(viewReq))
	r.set("core.iterations", "count", median(iters), len(iters))
}

// cpuTime is the CPU time the process has used, all threads.
func cpuTime() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration { return rusageCPU(syscall.RUSAGE_THREAD) }

// rusageCPU is the user plus system time getrusage reports for who.
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseMS is a profiled phase's total time in milliseconds (0 if absent).
func phaseMS(p *obs.ProfileReport, name string) float64 {
	if pp := p.Phase(name); pp != nil {
		return pp.TotalSeconds * 1000
	}
	return 0
}

// penaltyCalls counts §3.3.2 bound computations: the per-kind penalty
// phases record one observation per BoundDelta call (the worker-N
// phases time whole parallel batches and are skipped).
func penaltyCalls(p *obs.ProfileReport) float64 {
	var n int64
	for _, pp := range p.Phases {
		if strings.HasPrefix(pp.Phase, "search/penalty/") && !strings.HasPrefix(pp.Phase, "search/penalty/worker-") {
			n += pp.Count
		}
	}
	return float64(n)
}
