// Command perfbench is the tuner's benchmark. It runs one workload
// against the public entry points of core and service for a fixed time,
// checks every recommendation, and prints one JSON line of metrics:
//
//	perfbench --workload batch-tpch --seed 1 --seconds 20 --trace 0
//
// Workloads: batch-tpch and batch-updates (closed-loop NewTuner + Tune
// sessions) and daemon (an open-loop ingest client and a closed-loop
// retune client against service.NewHandler over httptest). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, and it writes the recorded spans as JSON lines
// under .bench_build/spans/. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median of their CPU times. The first set-up in a fresh process
// runs on a cold heap.
const setupReps = 5

func main() {
	workload := flag.String("workload", "", "batch-tpch, batch-updates or daemon")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spanDir := flag.String("span-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *spanDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, spanDir string) error {
	r := newReport()
	var log *spanLog
	if traced {
		log = newSpanLog()
	}
	var err error
	switch workload {
	case "batch-tpch", "batch-updates":
		err = measureBatch(r, workload, seed, seconds, log)
	case "daemon":
		err = measureDaemon(r, seed, seconds, log)
	default:
		return fmt.Errorf("unknown workload %q (want batch-tpch, batch-updates or daemon)", workload)
	}
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := log.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.notef("spans: %d written to %s", len(log.spans), path)
	}
	r.writeSummary(os.Stderr, workload, seed)
	if err := r.writeResult(os.Stdout); err != nil {
		return err
	}
	if !r.result().Correct {
		os.Exit(1)
	}
	return nil
}

// measureDaemon sets the daemon up setupReps times, keeps the last
// set-up, and measures it.
func measureDaemon(r *report, seed int64, seconds float64, log *spanLog) error {
	var counts *tuneCounts
	if log != nil {
		counts = &tuneCounts{}
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	err := timeSetups(r, log == nil, func() error {
		if d != nil {
			d.close()
		}
		var err error
		d, err = setupDaemon(seed, seconds, counts, log)
		return err
	})
	if err != nil {
		return err
	}
	r.notef("budget %d bytes; %d ingest requests of %d statements due at %d/s", d.budget, len(d.stream), batchSize, ingestRate)
	return runDaemon(r, d, seconds, log)
}

// measureBatch sets a batch workload up setupReps times, keeps the last
// set-up, and measures it.
func measureBatch(r *report, workload string, seed int64, seconds float64, log *spanLog) error {
	var b *batch
	err := timeSetups(r, log == nil, func() error {
		var err error
		b, err = setupBatch(workload, seed, log)
		return err
	})
	if err != nil {
		return err
	}
	r.notef("budget %d bytes", b.budget)
	return runBatch(r, b, seconds, log)
}

// timeSetups runs setup setupReps times and, in an untraced run, reports
// the median of their CPU times as setup_s. Wall times go to the notes.
func timeSetups(r *report, untraced bool, setup func() error) error {
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		t0, cpu0 := time.Now(), cpuTime()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		cpu = append(cpu, (cpuTime() - cpu0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	if untraced {
		r.set("setup_s", "s", median(cpu), len(cpu))
	}
	r.notef("set-ups: CPU %.3f s, wall %.3f s", cpu, wall)
	return nil
}
