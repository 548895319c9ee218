package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workloads"
)

// Daemon settings: tunerd's tuning defaults (views on, 120 iterations,
// default window), no auto-retune and no drift ticker.
const (
	daemonIterations = 120
	// retunePause is the retune client's think time between cycles. It
	// is short, so retunes overlap most ingests and the ingest tail
	// measures contention rather than the share of time a retune runs.
	retunePause = 20 * time.Millisecond
	// prefillSeconds of the stream are ingested before the warm-up retune.
	prefillSeconds = 1
	// ingestLimitMS is the ingest p99 latency limit. A failed or unsent
	// request counts as over it.
	ingestLimitMS = 100
)

// daemon is a set-up daemon workload: a service behind an httptest
// server whose window holds the prefilled stream and which has retuned
// once.
type daemon struct {
	db      *catalog.Database
	budget  int64
	cache   *core.RequestCache
	svc     *service.Service
	srv     *httptest.Server
	stream  []ingestBatch
	all     *workloads.Workload // both statement sets, stream-weighted
	tunings *tuneCounts
	// carried holds the structures of the latest recommendation, which
	// the next retune's warm start seeds its search with.
	carried map[string]bool
}

// setupDaemon generates the stream, derives the budget from both
// statement sets' optimum (views on), starts the service, prefills the
// window and runs one warm-up retune. With counts non-nil the service's
// trace feeds it each retune's request counters. A non-nil log records
// the set-up's spans.
func setupDaemon(seed int64, seconds float64, counts *tuneCounts, log *spanLog) (*daemon, error) {
	trace := log.newID()
	root, endRoot := log.start(trace, 0, "setup")
	defer endRoot()
	_, end := log.start(trace, root, "datagen.TPCH")
	d := &daemon{db: datagen.TPCH(scaleFactor), cache: core.NewRequestCache(), tunings: counts}
	end()
	a, b := daemonSets()
	prefill := prefillSeconds * ingestRate
	n := prefill + int(seconds*ingestRate)
	d.stream = daemonStream(seed, a, b, n, prefill+(n-prefill)/2)
	all, err := streamWorkload(d.db.Name, d.stream, trace, root, log)
	if err != nil {
		return nil, err
	}
	d.all = all
	if d.budget, err = setBudget(d.db, [][]string{a, b}, trace, root, log); err != nil {
		return nil, err
	}

	opts := service.Options{
		DB:     d.db,
		Cache:  d.cache,
		Tuning: core.Options{MaxIterations: daemonIterations, SpaceBudget: d.budget},
	}
	if counts != nil {
		opts.TraceSink = counts
	}
	_, end = log.start(trace, root, "service.New")
	d.svc, err = service.New(opts)
	end()
	if err != nil {
		return nil, err
	}
	_, end = log.start(trace, root, "service.NewHandler")
	d.srv = httptest.NewServer(service.NewHandler(d.svc))
	end()
	for _, ib := range d.stream[:prefill] {
		_, end = log.start(trace, root, "POST /ingest")
		_, err := d.ingest(ib)
		end()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	d.stream = d.stream[prefill:]
	c, err := d.retune(trace, root, log)
	if err == nil {
		err = checkDemanded(c.explain, nil)
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up retune: %w", err)
	}
	d.carried = structures(c.rec)
	return d, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.svc.Close()
}

// setBudget is the daemon's fixed budget: the budget rule (views on)
// for the statement set with the smaller optimum, so a window of either
// set, or of both, must be relaxed to fit.
func setBudget(db *catalog.Database, sets [][]string, trace, parent int64, log *spanLog) (int64, error) {
	var budget int64
	for i, set := range sets {
		_, end := log.start(trace, parent, "workloads.FromStatements")
		w, err := workloads.FromStatements(fmt.Sprintf("set-%d", i), db.Name, set)
		end()
		if err != nil {
			return 0, err
		}
		b, err := budgetFor(db, w, core.Options{}, trace, parent, log)
		if err != nil {
			return 0, err
		}
		if i == 0 || b < budget {
			budget = b
		}
	}
	return budget, nil
}

// streamWorkload compresses the parseable statements of a stream into
// one weighted workload: the input of the Parallelism 1 leg and the
// layer sweep.
func streamWorkload(database string, stream []ingestBatch, trace, parent int64, log *spanLog) (*workloads.Workload, error) {
	var sqls []string
	for _, ib := range stream {
		var req struct{ Statements []string }
		if err := json.Unmarshal(ib.body, &req); err != nil {
			return nil, err
		}
		for _, s := range req.Statements {
			if s != garbageSQL {
				sqls = append(sqls, s)
			}
		}
	}
	_, end := log.start(trace, parent, "workloads.FromStatements")
	w, err := workloads.FromStatements("daemon-stream", database, sqls)
	end()
	if err != nil {
		return nil, err
	}
	_, end = log.start(trace, parent, "workloads.Compress")
	defer end()
	return workloads.Compress(w), nil
}

// call sends one request to the service and decodes a 200 JSON reply
// into out.
func (d *daemon) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.srv.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// ingest posts one batch and checks that every statement was accepted
// except the unparseable ones, which must come back Rejected.
func (d *daemon) ingest(ib ingestBatch) (service.IngestResult, error) {
	var res service.IngestResult
	if err := d.call(http.MethodPost, "/ingest", ib.body, &res); err != nil {
		return res, err
	}
	if res.Accepted != ib.stmts-ib.garbage || res.Rejected != ib.garbage {
		return res, fmt.Errorf("ingest accepted %d rejected %d, want %d and %d", res.Accepted, res.Rejected, ib.stmts-ib.garbage, ib.garbage)
	}
	return res, nil
}

// cycleOut is one retune cycle's outcome and measurements.
type cycleOut struct {
	rec     *service.Recommendation
	tune    time.Duration // POST /retune until GET /recommendation served it
	cpu     time.Duration // process CPU time over the same span, all threads
	alloc   uint64        // heap allocated over the whole cycle
	explain *core.ExplainReport
	unique  int                // window's distinct statements when the retune started
	traced  bool               // spans recorded
	prof    *obs.ProfileReport // phases of this retune (traced runs)
	// indexReq and viewReq count the retune's §2 requests (traced runs).
	indexReq, viewReq int64
}

// retune runs one cycle: POST /retune, then GET /recommendation until it
// serves that retune's result, then GET /explain. A non-nil log records
// a span around each call.
func (d *daemon) retune(trace, root int64, log *spanLog) (*cycleOut, error) {
	out := &cycleOut{}
	cpu0 := cpuTime()
	t0 := time.Now()
	var posted struct {
		Recommendation *service.Recommendation `json:"recommendation"`
	}
	_, end := log.start(trace, root, "POST /retune")
	err := d.call(http.MethodPost, "/retune", nil, &posted)
	end()
	if err != nil {
		return nil, err
	}
	if posted.Recommendation == nil {
		return nil, fmt.Errorf("POST /retune returned no recommendation")
	}
	var served service.Recommendation
	_, end = log.start(trace, root, "GET /recommendation")
	err = d.call(http.MethodGet, "/recommendation", nil, &served)
	end()
	out.tune = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	if !served.GeneratedAt.Equal(posted.Recommendation.GeneratedAt) || served.Cost != posted.Recommendation.Cost {
		return nil, fmt.Errorf("GET /recommendation served the recommendation of %v, not the retune's (%v)",
			served.GeneratedAt, posted.Recommendation.GeneratedAt)
	}
	out.rec = &served
	out.explain = &core.ExplainReport{}
	_, end = log.start(trace, root, "GET /explain")
	err = d.call(http.MethodGet, "/explain", nil, out.explain)
	end()
	if d.tunings != nil {
		out.indexReq, out.viewReq = d.tunings.last()
	}
	return out, err
}

// ingestOut is one open-loop ingest request, timed from the run start.
type ingestOut struct {
	due, sent, done time.Duration
	sentOK          bool  // sent before the run ended
	err             error // transport error, non-200, or wrong accept/reject counts
}

// dueLatencyMS is each request's latency from the time it was due, in
// milliseconds; requests that failed or were never sent count as +Inf,
// over any limit.
func dueLatencyMS(reqs []ingestOut) []float64 {
	out := make([]float64, len(reqs))
	for i, q := range reqs {
		if !q.sentOK || q.err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(q.done-q.due) / 1e6
	}
	return out
}

// latenessMS is how late the generator sent each request, in
// milliseconds; unsent requests are as late as the run was long.
func latenessMS(reqs []ingestOut, runEnd time.Duration) []float64 {
	out := make([]float64, len(reqs))
	for i, q := range reqs {
		sent := q.sent
		if !q.sentOK {
			sent = runEnd
		}
		out[i] = float64(sent-q.due) / 1e6
	}
	return out
}

// backlogGrew reports whether the generator fell behind for good: over
// the last tenth of the requests its median lateness exceeds the
// latency limit. Spikes the service works off again do not count.
func backlogGrew(lateMS []float64, limitMS float64) bool {
	if len(lateMS) == 0 {
		return false
	}
	return median(lateMS[len(lateMS)-max(len(lateMS)/10, 1):]) > limitMS
}

// runDaemon measures the daemon for the given time: one open-loop
// ingest client at ingestRate and one closed-loop retune client. Traced,
// every other retune cycle records spans, and GET /profile after every
// cycle splits its retune into phases.
func runDaemon(r *report, d *daemon, seconds float64, log *spanLog) error {
	var prev *obs.ProfileReport
	if log != nil {
		var err error
		if prev, err = d.profile(0, 0, nil); err != nil {
			return err
		}
	}
	cache0 := d.cache.Stats()
	start := time.Now()
	runEnd := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(runEnd)
	var wg sync.WaitGroup
	var unique atomic.Int64 // window_unique after the latest ingest

	reqs := make([]ingestOut, len(d.stream))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, ib := range d.stream {
			q := &reqs[i]
			q.due = time.Duration(i) * time.Second / ingestRate
			if wait := q.due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			// Every request is due within the run; one the generator
			// could not send until the limit past the run's end is missed.
			if time.Since(start) >= runEnd+ingestLimitMS*time.Millisecond {
				continue
			}
			q.sent, q.sentOK = time.Since(start), true
			_, endSpan := log.start(log.newID(), 0, "POST /ingest")
			res, err := d.ingest(ib)
			endSpan()
			q.done, q.err = time.Since(start), err
			if err == nil {
				unique.Store(int64(res.WindowUnique))
			}
		}
	}()

	// Only this goroutine touches r until wg.Wait returns.
	var cycles []*cycleOut
	var refS []float64
	for i := 0; time.Now().Before(deadline); i++ {
		refS = append(refS, referenceCPU().Seconds())
		var l *spanLog
		if log != nil && i%2 == 1 {
			l = log
		}
		trace := l.newID()
		root, endRoot := l.start(trace, 0, "retune cycle")
		alloc0 := obs.HeapAllocBytes()
		windowUnique := int(unique.Load())
		c, err := d.retune(trace, root, l)
		var p *obs.ProfileReport
		if err == nil && log != nil {
			p, err = d.profile(trace, root, l)
		}
		time.Sleep(retunePause)
		endRoot()
		if !r.op("retune cycle", err) {
			continue
		}
		c.alloc, c.unique, c.traced = obs.HeapAllocBytes()-alloc0, windowUnique, l != nil
		if p != nil {
			c.prof = profileDelta(prev, p)
			c.prof.WallSeconds = c.tune.Seconds()
			prev = p
		}
		r.op("retune checks",
			checkBudget(c.rec.SizeBytes, d.budget),
			checkCost(c.rec.Cost, c.rec.InitialCost),
			checkDemanded(c.explain, d.carried))
		d.carried = structures(c.rec)
		cycles = append(cycles, c)
	}
	wg.Wait()
	cache := d.cache.Stats()

	for i, q := range reqs {
		if !q.sentOK {
			q.err = fmt.Errorf("never sent: due at %v, still unsent %d ms after the run", q.due, ingestLimitMS)
		}
		r.op(fmt.Sprintf("ingest %d", i), q.err)
	}
	late := latenessMS(reqs, runEnd)
	if backlogGrew(late, ingestLimitMS) {
		r.op("open-loop generator", fmt.Errorf("backlog grew: over the last tenth of the run the generator ran more than %d ms behind", ingestLimitMS))
	}
	r.notef("generator lateness over %d requests: p50 %.3f ms, p99 %.3f ms, max %.3f ms", len(late), median(late), quantile(late, 0.99), quantile(late, 1))
	if log != nil {
		return daemonLayers(r, d, cycles, refS, dueLatencyMS(reqs), late, cache0, cache, log)
	}
	daemonMetrics(r, cycles, refS, dueLatencyMS(reqs))
	return nil
}

// daemonMetrics reports the daemon's end-to-end metrics.
func daemonMetrics(r *report, cycles []*cycleOut, refS, latMS []float64) {
	var tune, cpu, calls, impr, alloc []float64
	for _, c := range cycles {
		tune = append(tune, c.tune.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		calls = append(calls, float64(c.rec.OptimizerCalls))
		impr = append(impr, c.rec.ImprovementPct)
		alloc = append(alloc, float64(c.alloc)/(1<<20))
	}
	tuneMetrics(r, cpu, refS, calls, impr, alloc)
	p99 := quantile(latMS, 0.99)
	r.notef("wall time per retune (POST /retune until GET /recommendation serves it): p50 %.3f s over %d retunes", median(tune), len(tune))
	r.notef("ingest latency from due time over %d requests (supports up to p%g): p50 %.3f ms, p99 %.3f ms against the %d ms limit (%s)",
		len(latMS), highestPercentile(len(latMS)), median(latMS), p99, ingestLimitMS, map[bool]string{true: "met", false: "missed"}[p99 <= ingestLimitMS])
}

// daemonLayers reports the daemon's per-layer metrics: phase splits of
// each retune, the counters each retune's explain report and trace
// carry, the fragment cache, a Parallelism 1 leg and the layer sweep.
func daemonLayers(r *report, d *daemon, cycles []*cycleOut, refS, latMS, lateMS []float64, cache0, cache core.CacheStats, log *spanLog) error {
	var profs []*obs.ProfileReport
	var wallMS, plain, plainCPU, traced, retuneMS, unique []float64
	var counts []counters
	warm := 0
	for _, c := range cycles {
		profs = append(profs, c.prof)
		wallMS = append(wallMS, c.tune.Seconds()*1000)
		if c.traced {
			traced = append(traced, c.tune.Seconds())
		} else {
			plain = append(plain, c.tune.Seconds())
			plainCPU = append(plainCPU, c.cpu.Seconds())
		}
		retuneMS = append(retuneMS, float64(c.rec.ElapsedMillis))
		unique = append(unique, float64(c.unique))
		if c.explain.Source == "warm-start" {
			warm++
		}
		counts = append(counts, counters{
			calib: c.explain.Calibration, calls: c.rec.OptimizerCalls, iterations: c.rec.Iterations,
			indexReq: c.indexReq, viewReq: c.viewReq,
		})
	}
	phaseMetrics(r, profs, wallMS)
	counterMetrics(r, counts)
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	r.set("core.fragment_cache_hit_pct", "%", pct(float64(hits), float64(hits+misses)), int(hits+misses))
	r.set("service.warm_start_pct", "%", pct(float64(warm), float64(len(cycles))), len(cycles))
	r.set("service.retune_ms", "ms", median(retuneMS), len(retuneMS))
	r.set("workloads.window_unique", "count", median(unique), len(unique))
	r.set("bench.generator_late_ms_p99", "ms", quantile(lateMS, 0.99), len(lateMS))
	r.set("obs.trace_overhead_pct", "%", pct(median(traced)-median(plain), median(plain)), len(traced))
	r.set("wall.tune_s_p50", "s", median(plain), len(plain))
	cpuMetrics(r, plainCPU, refS)
	r.set("wall.ingest_p50_ms", "ms", median(latMS), len(latMS))
	r.set("wall.ingest_p99_ms", "ms", quantile(latMS, 0.99), len(latMS))

	opts := core.Options{MaxIterations: daemonIterations, SpaceBudget: d.budget}
	if err := parallelLeg(r, d.db, d.all, opts, log); err != nil {
		return err
	}
	return sweep(r, d.db, d.all, opts, log)
}

// parallelLeg tunes the stream's statements at the default Parallelism
// and at Parallelism 1, checks both recommend the same configuration,
// and reports the extra optimizer calls the default spends.
func parallelLeg(r *report, db *catalog.Database, w *workloads.Workload, opts core.Options, log *spanLog) error {
	var res [2]*core.Result
	for i, par := range []int{0, 1} {
		trace := log.newID()
		o := opts
		o.Parallelism = par
		_, end := log.start(trace, 0, fmt.Sprintf("core.Tuner.Tune (Parallelism %d)", par))
		tn, err := core.NewTuner(db, w, o)
		if err == nil {
			res[i], err = tn.Tune()
		}
		end()
		if err != nil {
			return err
		}
	}
	r.op("Parallelism 1 equivalence", checkSame(outcomeOf(res[0]), outcomeOf(res[1])))
	r.set("core.parallel_extra_calls_pct", "%", pct(float64(res[0].OptimizerCalls-res[1].OptimizerCalls), float64(res[1].OptimizerCalls)), 1)
	return nil
}

// profile fetches the service's cumulative phase profile. A non-nil log
// records a span around the call.
func (d *daemon) profile(trace, root int64, log *spanLog) (*obs.ProfileReport, error) {
	p := &obs.ProfileReport{}
	_, end := log.start(trace, root, "GET /profile")
	defer end()
	return p, d.call(http.MethodGet, "/profile", nil, p)
}

// profileDelta is the profile of what ran between two cumulative
// snapshots: per-phase totals and counts minus the earlier ones.
func profileDelta(prev, cur *obs.ProfileReport) *obs.ProfileReport {
	out := &obs.ProfileReport{SchemaVersion: cur.SchemaVersion}
	for _, pp := range cur.Phases {
		if before := prev.Phase(pp.Phase); before != nil {
			pp.TotalSeconds -= before.TotalSeconds
			pp.Count -= before.Count
		}
		out.Phases = append(out.Phases, pp)
		if pp.Depth() == 0 {
			out.TopLevelSeconds += pp.TotalSeconds
		}
	}
	return out
}

// tuneCounts is a trace sink that keeps the request counters of the
// latest tuning session, read from the service's "tune" span end.
type tuneCounts struct {
	mu          sync.Mutex
	index, view int64
}

func (c *tuneCounts) Emit(e obs.Event) {
	if e.Type != obs.EvSpanEnd || e.Phase != "tune" {
		return
	}
	index, _ := e.Fields["index_requests"].(int64)
	view, _ := e.Fields["view_requests"].(int64)
	c.mu.Lock()
	c.index, c.view = index, view
	c.mu.Unlock()
}

func (c *tuneCounts) Close() error { return nil }

func (c *tuneCounts) last() (index, view int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index, c.view
}

// structures is the set of index IDs and view names a recommendation
// holds, as the explain report names them.
func structures(rec *service.Recommendation) map[string]bool {
	out := make(map[string]bool, len(rec.Indexes)+len(rec.Views))
	for _, id := range rec.Indexes {
		out[id] = true
	}
	for _, v := range rec.Views {
		name, _, _ := strings.Cut(v, " := ")
		out[name] = true
	}
	return out
}
