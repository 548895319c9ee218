package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// Input sizing shared by every workload.
const (
	// scaleFactor is the synthetic databases' scale factor.
	scaleFactor = 0.001
	// variants is how many weight vectors a batch run draws from its
	// seed; sessions cycle through them, so most vectors are tuned twice
	// in a run and the determinism check has repeats to compare. The
	// search path is sensitive to weights (optimizer calls vary ±8%
	// between vectors at ±20% weights), so a run's figures span many
	// vectors to stay comparable across seeds.
	variants = 12
	// weightSpread bounds each statement weight to 1 ± weightSpread.
	weightSpread = 0.1
	// budgetDivisor places the space budget at base + (optimum − base)/k.
	// A fraction of optimum alone can sit below the required indexes.
	budgetDivisor = 2
	// mixSeed fixes the statement text of the batch-updates mix (the
	// generator's own seed); the run seed draws the statement weights.
	// Mixes from different generator seeds differ 3x in tuning time,
	// which would make runs with different seeds incomparable.
	mixSeed = 42
	// mixStatements and mixUpdateShare size the batch-updates mix.
	mixStatements  = 30
	mixUpdateShare = 0.3
)

// Daemon stream sizing.
const (
	// ingestRate is the open-loop client's requests per second: 20 s
	// give 4000 samples, 40 beyond the p99.
	ingestRate = 200
	// batchSize is the statements per ingest request.
	batchSize = 8
	// garbageEvery puts one unparseable statement into every n-th batch
	// (1/40 of all statements); each must come back Rejected.
	garbageEvery = 5
	// zipfS is the Zipf exponent of statement popularity.
	zipfS = 1.3
)

// garbageSQL is the unparseable statement the daemon stream mixes in.
const garbageSQL = "SELEC c_name FROM customer WHERE"

// weightVectors draws n weight vectors of size k from rng, each weight
// in [1 − weightSpread, 1 + weightSpread).
func weightVectors(rng *rand.Rand, n, k int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
		for j := range out[i] {
			out[i][j] = 1 - weightSpread + 2*weightSpread*rng.Float64()
		}
	}
	return out
}

// batchSpec is the generated input of a batch workload: parsed
// statements (weight 1) and the seeded weight vectors sessions apply.
type batchSpec struct {
	db      *catalog.Database
	w       *workloads.Workload
	weights [][]float64
}

// batchInputs builds the database, statements and seeded weight vectors
// of a batch workload. A non-nil log records a span around every call,
// under parent.
func batchInputs(workload string, seed int64, trace, parent int64, log *spanLog) (*batchSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var db *catalog.Database
	var w *workloads.Workload
	var err error
	switch workload {
	case "batch-tpch":
		_, end := log.start(trace, parent, "datagen.TPCH")
		db = datagen.TPCH(scaleFactor)
		end()
		_, end = log.start(trace, parent, "workloads.TPCH22")
		w, err = workloads.TPCH22()
		end()
	case "batch-updates":
		_, end := log.start(trace, parent, "datagen.Bench")
		db = datagen.Bench(scaleFactor)
		end()
		gen := workloads.DefaultGenOptions(workload, mixSeed, mixStatements)
		gen.UpdateFraction = mixUpdateShare
		_, end = log.start(trace, parent, "workloads.Generate")
		w, err = workloads.Generate(db, gen)
		end()
	default:
		return nil, fmt.Errorf("unknown batch workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return &batchSpec{db: db, w: w, weights: weightVectors(rng, variants, len(w.Queries))}, nil
}

// ingestBatch is one POST /ingest request of the daemon stream.
type ingestBatch struct {
	body    []byte
	stmts   int
	garbage int
}

// daemonSets splits the TPC-H queries into the stream's two statement
// sets, odd- and even-numbered: the stream draws from the first, then
// drifts to the second halfway through the run. Retunes over either set
// alone cost about the same (queries 1–11 against 12–22 differ twofold),
// so the median retune does not hinge on how many fall in each phase.
func daemonSets() (a, b []string) {
	for i, s := range workloads.TPCH22SQL() {
		if i%2 == 0 {
			a = append(a, s)
		} else {
			b = append(b, s)
		}
	}
	return a, b
}

// daemonStream draws n ingest batches from seed: statements follow a
// Zipf popularity over set a (in its order) for the first `drift`
// batches and over set b after, and every garbageEvery-th batch carries
// one unparseable statement. The seed drives the draws only: a seeded
// ranking would change which queries dominate the window, and retune
// cost and improvement with it (41–82% improvement across five seeds).
func daemonStream(seed int64, a, b []string, n, drift int) []ingestBatch {
	rng := rand.New(rand.NewSource(seed))
	zipfA := rand.NewZipf(rng, zipfS, 1, uint64(len(a)-1))
	zipfB := rand.NewZipf(rng, zipfS, 1, uint64(len(b)-1))
	out := make([]ingestBatch, n)
	for i := range out {
		stmts := make([]string, batchSize)
		for j := range stmts {
			if i < drift {
				stmts[j] = a[zipfA.Uint64()]
			} else {
				stmts[j] = b[zipfB.Uint64()]
			}
		}
		garbage := 0
		if i%garbageEvery == garbageEvery-1 {
			stmts[batchSize/2] = garbageSQL
			garbage = 1
		}
		body, _ := json.Marshal(map[string][]string{"statements": stmts}) // strings always marshal
		out[i] = ingestBatch{body: body, stmts: batchSize, garbage: garbage}
	}
	return out
}
