package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestDueLatencyIncludesGeneratorLateness(t *testing.T) {
	reqs := []ingestOut{
		{due: 0, sent: 0, done: 2 * ms, sentOK: true},
		// Sent 30 ms late behind a stall: 35 ms from due, not 5 ms.
		{due: 10 * ms, sent: 40 * ms, done: 45 * ms, sentOK: true},
	}
	got := dueLatencyMS(reqs)
	if got[0] != 2 || got[1] != 35 {
		t.Errorf("due-time latencies = %v, want [2 35]", got)
	}
	late := latenessMS(reqs, time.Second)
	if late[0] != 0 || late[1] != 30 {
		t.Errorf("lateness = %v, want [0 30]", late)
	}
}

func TestFailedAndUnsentRequestsMissTheLimit(t *testing.T) {
	reqs := []ingestOut{
		{due: 0, done: ms, sentOK: true},
		{due: ms, done: 2 * ms, sentOK: true, err: errors.New("status 500")},
		{due: 990 * ms},
	}
	got := dueLatencyMS(reqs)
	if got[0] != 1 || !math.IsInf(got[1], 1) || !math.IsInf(got[2], 1) {
		t.Errorf("latencies = %v, want [1 +Inf +Inf]", got)
	}
	if late := latenessMS(reqs, time.Second); late[2] != 10 {
		t.Errorf("unsent request lateness = %v ms, want 10 (run end − due)", late[2])
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := make([]float64, 100)
	for i := range steady {
		steady[i] = 1
	}
	steady[50], steady[95] = 400, 300 // stalls the service works off
	if backlogGrew(steady, 100) {
		t.Error("spikes counted as a growing backlog")
	}
	growing := make([]float64, 100)
	for i := range growing {
		growing[i] = float64(i) * 5 // falls 5 ms further behind per request
	}
	if !backlogGrew(growing, 100) {
		t.Error("a generator 450+ ms behind at the end passed")
	}
	if backlogGrew(nil, 100) {
		t.Error("no requests counted as a backlog")
	}
}

// fakeService answers like the service would, but with the given bodies.
func fakeService(t *testing.T, routes map[string]string) *daemon {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := routes[r.Method+" "+r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return &daemon{srv: srv}
}

func TestIngestChecksAcceptedAndRejected(t *testing.T) {
	d := fakeService(t, map[string]string{"POST /ingest": `{"accepted": 8, "rejected": 0}`})
	if _, err := d.ingest(ingestBatch{stmts: 8}); err != nil {
		t.Errorf("clean batch: %v", err)
	}
	// The garbage statement was accepted instead of rejected.
	if _, err := d.ingest(ingestBatch{stmts: 8, garbage: 1}); err == nil {
		t.Error("unparseable statement accepted, check passed")
	}
	if err := d.call(http.MethodGet, "/missing", nil, &struct{}{}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("non-2xx reply: got %v, want a status error", err)
	}
}

func TestRetuneChecksTheServedRecommendation(t *testing.T) {
	d := fakeService(t, map[string]string{
		"POST /retune":        `{"recommendation": {"generated_at": "2026-01-01T00:00:02Z", "cost": 5}}`,
		"GET /recommendation": `{"generated_at": "2026-01-01T00:00:01Z", "cost": 7}`,
		"GET /explain":        `{"structures": []}`,
	})
	if _, err := d.retune(0, 0, nil); err == nil || !strings.Contains(err.Error(), "not the retune's") {
		t.Errorf("stale recommendation served: got %v, want a failure", err)
	}
	d = fakeService(t, map[string]string{
		"POST /retune":        `{"recommendation": {"generated_at": "2026-01-01T00:00:02Z", "cost": 5}}`,
		"GET /recommendation": `{"generated_at": "2026-01-01T00:00:02Z", "cost": 5}`,
		"GET /explain":        `{"structures": []}`,
	})
	if _, err := d.retune(0, 0, nil); err != nil {
		t.Errorf("fresh recommendation: %v", err)
	}
}
