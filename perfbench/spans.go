package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into the program. Spans of
// one session, retune cycle or ingest request share a trace ID; Parent
// is the span that caused this one (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one pointer check per call.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID returns a fresh span or trace ID (0 when l is nil).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// start opens a span and returns its ID and the function that closes it.
func (l *spanLog) start(trace, parent int64, name string) (int64, func()) {
	if l == nil {
		return 0, func() {}
	}
	id := l.newID()
	begin := time.Since(l.t0).Nanoseconds()
	return id, func() {
		end := time.Since(l.t0).Nanoseconds()
		l.mu.Lock()
		l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: begin, End: end})
		l.mu.Unlock()
	}
}

// write stores the spans as JSON lines at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
