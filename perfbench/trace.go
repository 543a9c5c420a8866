package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no spans).  Spans of one op share its op
// id; parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// counts holds per-call samples of layer counters (events, composed
	// states, …) keyed by metric name.
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// count records one sample of a layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// timed runs fn inside a span and returns the span's length in
// milliseconds (0 on a nil tracer).
func (t *tracer) timed(name string, parent, op int, fn func()) float64 {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}

// allocMB runs fn and returns the megabytes it allocated (the whole process
// is counted, so it is only meaningful while one goroutine works).
func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			start, end := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName groups self times by span name, in milliseconds.
func (t *tracer) selfByName() map[string][]float64 {
	out := map[string][]float64{}
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] = append(out[t.spans[i].Name], float64(d)/1e6)
	}
	return out
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFile names the span file of a traced run.
func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
