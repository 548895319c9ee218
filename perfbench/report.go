package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// maxErrors bounds how many failure messages a run keeps for its summary.
const maxErrors = 8

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's operations, failures and metrics.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	// samples records how many observations each metric summarizes.
	samples map[string]int
	// notes are extra summary lines for standard error.
	notes []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// op counts one attempted operation; it fails when any err is non-nil.
// It reports whether the operation succeeded.
func (r *report) op(what string, errs ...error) bool {
	r.attempted++
	for _, err := range errs {
		if err != nil {
			r.failed++
			if len(r.errs) < maxErrors {
				r.errs = append(r.errs, what+": "+err.Error())
			}
			return false
		}
	}
	return true
}

// set records a metric summarizing n observations.
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result renders the final JSON object. Non-finite values (a percentile
// that landed on a failed request) become the largest finite float so
// the line stays valid JSON; such runs are never correct anyway.
func (r *report) result() result {
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(r.metrics)),
	}
	for k, m := range r.metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
		}
		out.Metrics[k] = m
	}
	return out
}

// writeSummary prints a human-readable table of the run to w.
func (r *report) writeSummary(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "perfbench %s seed=%d: %d operations, %d failed (%.2f%%)\n",
		workload, seed, r.attempted, r.failed, pct(float64(r.failed), float64(r.attempted)))
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, r.samples[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
}

// writeResult prints the result as one JSON line.
func (r *report) writeResult(w io.Writer) error {
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
