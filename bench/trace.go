package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"kairos/bench/stats"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own files (spans inside the program are a later change).
type span struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// StartNs and EndNs are nanoseconds since the tracer was created.
	StartNs int64 `json:"start"`
	EndNs   int64 `json:"end"`
	// Parent is the ID of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Request identifies the request the span belongs to: the window's
	// start_unix for ingest, a running number elsewhere, 0 outside any.
	Request int64 `json:"request_id"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so call sites need no "is tracing on".
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noParent marks a root span.
const noParent = -1

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, name string, request int64) int {
	if t == nil {
		return noParent
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: now, EndNs: now, Parent: parent, Request: request})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// span opens a root span and returns the function that closes it.
func (t *tracer) span(name string, request int64) func() {
	id := t.begin(noParent, name, request)
	return func() { t.end(id) }
}

// timed runs f as a child span of parent and returns how long it took,
// in milliseconds.
func (t *tracer) timed(parent int, name string, request int64, f func()) float64 {
	id := t.begin(parent, name, request)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return ms(d)
}

// selfMs is a span's self time: its duration minus what its direct
// children cover.
func (t *tracer) selfMs(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans[id]
	var children []stats.Interval
	for _, c := range t.spans {
		if c.Parent == id {
			children = append(children, stats.Interval{Start: float64(c.StartNs), End: float64(c.EndNs)})
		}
	}
	return stats.SelfTime(stats.Interval{Start: float64(sp.StartNs), End: float64(sp.EndNs)}, children) / 1e6
}

// totalMs sums the durations of the spans with the given name.
func (t *tracer) totalMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, sp := range t.spans {
		if sp.Name == name {
			ns += sp.EndNs - sp.StartNs
		}
	}
	return float64(ns) / 1e6
}

// selfTotalMs sums the self times of the spans whose name starts with
// prefix.
func (t *tracer) selfTotalMs(prefix string) float64 {
	t.mu.Lock()
	ids := []int{}
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Name, prefix) {
			ids = append(ids, sp.ID)
		}
	}
	t.mu.Unlock()
	var ms float64
	for _, id := range ids {
		ms += t.selfMs(id)
	}
	return ms
}

// count reports how many spans were recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
