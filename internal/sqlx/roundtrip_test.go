package sqlx_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// roundTripCorpus is the TPC-H 22 text plus generated statement mixes
// over several schemas and seeds, with and without updates, each
// rendered by Statement.SQL.
func roundTripCorpus(tb testing.TB) []string {
	tb.Helper()
	out := append([]string(nil), workloads.TPCH22SQL()...)
	// Forms the generators never emit: numbers that render with an
	// exponent, and quotes inside a LIKE pattern.
	out = append(out,
		"SELECT a FROM t WHERE a > 1000000 AND b < 0.00001",
		"SELECT a FROM t WHERE b LIKE 'it''s%' AND c NOT LIKE 'x'",
	)
	for _, db := range []*catalog.Database{datagen.TPCH(0.001), datagen.Bench(0.001), datagen.DS1(0.001)} {
		for _, seed := range []int64{1, 7, 42} {
			for _, updates := range []float64{0, 0.3} {
				opt := workloads.DefaultGenOptions("roundtrip", seed, 30)
				opt.UpdateFraction = updates
				w, err := workloads.Generate(db, opt)
				if err != nil {
					tb.Fatalf("generate %s seed %d: %v", db.Name, seed, err)
				}
				for _, q := range w.Queries {
					out = append(out, q.Stmt.SQL())
				}
			}
		}
	}
	return out
}

// requireRoundTrip asserts that a parsed statement's rendering parses
// back to the same rendering.
func requireRoundTrip(t *testing.T, src string, stmt sqlx.Statement) {
	t.Helper()
	rendered := stmt.SQL()
	again, err := sqlx.Parse(rendered)
	if err != nil {
		t.Fatalf("rendering of %q does not parse: %v\n  rendered: %s", src, err, rendered)
	}
	if got := again.SQL(); got != rendered {
		t.Fatalf("rendering of %q is not a fixpoint:\n  first:  %s\n  second: %s", src, rendered, got)
	}
}

// TestStatementSQLRoundTrips: every TPC-H and generated statement
// renders to text that parses back to the same rendering.
func TestStatementSQLRoundTrips(t *testing.T) {
	for _, src := range roundTripCorpus(t) {
		stmt, err := sqlx.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		requireRoundTrip(t, src, stmt)
	}
}

// FuzzParse: Parse never panics, and whatever it accepts round-trips
// through Statement.SQL.
func FuzzParse(f *testing.F) {
	for _, src := range roundTripCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqlx.Parse(src)
		if err != nil {
			return
		}
		requireRoundTrip(t, src, stmt)
	})
}
