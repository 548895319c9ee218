package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/service"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// Sweep sizing: every statement is parsed, bound, optimized and observed
// sweepReps times; at most sweepTransformations enumerated
// transformations (evenly strided) are bounded and evaluated.
const (
	sweepReps            = 20
	sweepTransformations = 120
)

// sweep times single calls into each layer on the workload's own
// statements, under its optimal configuration, and reports the median
// microseconds per call.
func sweep(r *report, db *catalog.Database, w *workloads.Workload, opts core.Options, log *spanLog) error {
	trace := log.newID()
	root, endRoot := log.start(trace, 0, "sweep")
	defer endRoot()
	timed := func(name string, samples *[]float64, fn func() error) error {
		t0 := time.Now()
		_, end := log.start(trace, root, name)
		err := fn()
		end()
		*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	// Statements are parsed from their SQL text. Text that does not parse
	// back (the update mix's generator renders arithmetic comparisons in
	// a form the parser rejects) is skipped and counted in a note.
	var parse, bind []float64
	sqls, unparsed := parseableSQL(w)
	bound := make([]*optimizer.BoundQuery, len(w.Queries))
	for rep := 0; rep < sweepReps; rep++ {
		for _, src := range sqls {
			if err := timed("sqlx.Parse", &parse, func() error { _, err := sqlx.Parse(src); return err }); err != nil {
				return err
			}
		}
		for i, q := range w.Queries {
			if err := timed("optimizer.Bind", &bind, func() (err error) { bound[i], err = optimizer.Bind(db, q.Stmt); return }); err != nil {
				return err
			}
		}
	}
	r.set("sqlx.parse_us_p50", "us", median(parse), len(parse))
	r.set("optimizer.bind_us_p50", "us", median(bind), len(bind))
	if unparsed > 0 {
		r.notef("sweep: %d of %d statements render to SQL text that sqlx.Parse rejects; parse timed on the rest", unparsed, len(w.Queries))
	}

	var tn *core.Tuner
	var optCfg *physical.Configuration
	var ec *core.EvaluatedConfig
	var prep []float64 // timed for the span file only
	if err := timed("core.NewTuner", &prep, func() (err error) { tn, err = core.NewTuner(db, w, opts); return }); err != nil {
		return err
	}
	if err := timed("core.Tuner.OptimalConfiguration", &prep, func() (err error) { optCfg, err = tn.OptimalConfiguration(); return }); err != nil {
		return err
	}
	if err := timed("core.Tuner.Evaluate", &prep, func() (err error) { ec, err = tn.Evaluate(optCfg); return }); err != nil {
		return err
	}

	var optimize []float64
	for rep := 0; rep < sweepReps; rep++ {
		for _, b := range bound {
			if err := timed("optimizer.Optimizer.Optimize", &optimize, func() error { _, err := tn.Opt.Optimize(b, optCfg); return err }); err != nil {
				return err
			}
		}
	}
	r.set("optimizer.optimize_us_p50", "us", median(optimize), len(optimize))

	enumOpts := physical.EnumerateOptions{
		NoViews:    opts.NoViews,
		HeapTables: datagen.HeapTables(db),
		WidthOf:    func(c sqlx.ColRef) int { return columnWidth(db, c) },
	}
	var enumerate []float64
	var trs []*physical.Transformation
	for rep := 0; rep < sweepReps; rep++ {
		_ = timed("physical.Enumerate", &enumerate, func() error { trs = physical.Enumerate(optCfg, enumOpts); return nil })
	}
	r.set("physical.enumerate_us_p50", "us", median(enumerate), len(enumerate))
	r.set("physical.transformations", "count", float64(len(trs)), 1)

	var delta, evalInc, sizes []float64
	sizer := tn.Opt.Sizer()
	stride := (len(trs) + sweepTransformations - 1) / sweepTransformations
	for i := 0; i < len(trs); i += max(stride, 1) {
		tr := trs[i]
		if tr.Kind == physical.TransMergeViews && tr.VM.EstRows == 0 {
			_ = timed("optimizer.Optimizer.EstimateViewRows", &prep, func() error { tr.VM.EstRows = tn.Opt.EstimateViewRows(tr.VM); return nil })
		}
		if err := timed("core.Tuner.BoundDelta", &delta, func() error { _, err := tn.BoundDelta(ec, tr); return err }); err != nil {
			return err
		}
		var cfg *physical.Configuration
		_ = timed("physical.Transformation.Apply", &prep, func() error { cfg = tr.Apply(optCfg); return nil })
		_ = timed("physical.Sizer.ConfigBytes", &sizes, func() error { sizer.ConfigBytes(cfg); return nil })
		if err := timed("core.Tuner.EvaluateIncremental", &evalInc, func() error {
			_, _, err := tn.EvaluateIncremental(ec, cfg, tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
			return err
		}); err != nil {
			return err
		}
	}
	r.set("core.bound_delta_us_p50", "us", median(delta), len(delta))
	r.set("physical.config_bytes_us_p50", "us", median(sizes), len(sizes))
	r.set("core.evaluate_incremental_us_p50", "us", median(evalInc), len(evalInc))

	var observe []float64
	win := workloads.NewSlidingWindow(db.Name, workloads.WindowOptions{})
	for rep := 0; rep < sweepReps; rep++ {
		for _, src := range sqls {
			if err := timed("workloads.SlidingWindow.Observe", &observe, func() error { return win.Observe(src) }); err != nil {
				return err
			}
		}
	}
	r.set("workloads.observe_us_p50", "us", median(observe), len(observe))
	return sweepIngest(r, db, sqls, timed)
}

// parseableSQL returns the statements' SQL texts that parse, and how
// many do not.
func parseableSQL(w *workloads.Workload) ([]string, int) {
	var out []string
	for _, q := range w.Queries {
		if _, err := sqlx.Parse(q.SQL); err == nil {
			out = append(out, q.SQL)
		}
	}
	return out, len(w.Queries) - len(out)
}

// sweepIngest times the /ingest handler through a ResponseRecorder, in
// batches of the daemon stream's size.
func sweepIngest(r *report, db *catalog.Database, sqls []string, timed func(string, *[]float64, func() error) error) error {
	var svc *service.Service
	var h http.Handler
	var prep []float64 // timed for the span file only
	if err := timed("service.New", &prep, func() (err error) { svc, err = service.New(service.Options{DB: db}); return }); err != nil {
		return err
	}
	defer svc.Close()
	_ = timed("service.NewHandler", &prep, func() error { h = service.NewHandler(svc); return nil })
	var bodies [][]byte
	for i := 0; i < len(sqls); i += batchSize {
		body, _ := json.Marshal(map[string][]string{"statements": sqls[i:min(i+batchSize, len(sqls))]}) // strings always marshal
		bodies = append(bodies, body)
	}
	var serve []float64
	for rep := 0; rep < sweepReps; rep++ {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
			if err := timed("service.Handler /ingest", &serve, func() error {
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	r.set("service.ingest_serve_us_p50", "us", median(serve), len(serve))
	return nil
}

// columnWidth is a base column's average width, for view merging (the
// tuner's own rule: 8 bytes when the column is unknown).
func columnWidth(db *catalog.Database, c sqlx.ColRef) int {
	if t := db.Table(c.Table); t != nil {
		if col := t.Column(c.Column); col != nil {
			return col.AvgWidth
		}
	}
	return 8
}
