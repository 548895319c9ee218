package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(EvIteration, F{"iter": 1})
	end := tr.Span("tune", nil)
	end(F{"ok": true})
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	// A tracer over a nil sink is equally inert.
	tr2 := NewTracer(nil)
	if tr2.Enabled() {
		t.Fatal("nil-sink tracer reports enabled")
	}
	tr2.Emit(EvEval, nil)
}

func TestTracerSequencingAndPhases(t *testing.T) {
	mem := NewMemorySink()
	tr := NewTracer(mem)
	endTune := tr.Span("tune", F{"db": "tpch"})
	tr.Emit(EvIteration, F{"iter": 0})
	endSearch := tr.Span("search", nil)
	tr.Emit(EvEval, F{"cost": 1.5})
	endSearch(F{"optimizer_calls": int64(3)})
	endTune(nil)

	ev := mem.Events()
	if len(ev) != 6 {
		t.Fatalf("got %d events, want 6", len(ev))
	}
	for i, e := range ev {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if ev[1].Phase != "tune" {
		t.Fatalf("iteration phase = %q, want tune", ev[1].Phase)
	}
	if ev[3].Phase != "search" {
		t.Fatalf("eval phase = %q, want search", ev[3].Phase)
	}
	if ev[4].Type != EvSpanEnd || ev[4].Phase != "search" {
		t.Fatalf("span_end phase = %q, want search", ev[4].Phase)
	}
	if _, ok := ev[4].Fields["elapsed_ms"]; !ok {
		t.Fatal("span_end missing elapsed_ms")
	}
	if ev[5].Phase != "tune" {
		t.Fatalf("outer span_end phase = %q, want tune", ev[5].Phase)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	tr.Emit(EvApply, F{"trans": []string{"remove(a)"}, "iter": 3})
	tr.Emit(EvSkip, F{"reason": "duplicate"})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Type != EvApply || lines[1].Fields["reason"] != "duplicate" {
		t.Fatalf("round trip mangled events: %+v", lines)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	s := MultiSink(a, nil, b)
	s.Emit(Event{Type: EvEval})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out missed a sink: %d/%d", a.Len(), b.Len())
	}
	if MultiSink() != nil {
		t.Fatal("empty MultiSink should be nil")
	}
	if MultiSink(nil, a) != Sink(a) {
		t.Fatal("single-sink MultiSink should collapse")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	mem := NewMemorySink()
	tr := NewTracer(mem)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(EvIteration, F{"iter": i})
			}
		}()
	}
	wg.Wait()
	if mem.Len() != 800 {
		t.Fatalf("got %d events, want 800", mem.Len())
	}
	seen := map[int64]bool{}
	for _, e := range mem.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
