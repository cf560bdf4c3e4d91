package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// query share Query; Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Query   int64  `json:"query"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: "compile" for
// "compile.CompileSQL".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, query int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNs = now
	t.mu.Unlock()
}

// stat sums the durations of every closed span with the given name.
func (t *tracer) stat(name string) (total time.Duration, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			total += time.Duration(s.EndNs - s.StartNs)
			n++
		}
	}
	return total, n
}

// mean is the average duration of the named spans in the given unit.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	total, n := t.stat(name)
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// selfTimes gives each layer's self time: its spans' durations minus the
// time their direct children cover. Children of one span never overlap
// (each client calls layers one after another), so the covered time is the
// sum of the children's durations.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.layer()] += float64(self[i]) / 1e9
	}
	return out
}

// write stores the spans, the per-layer self times and the run's facts as
// one JSON file, and returns the self times for the caller to print.
func (t *tracer) write(path string, facts map[string]any) (map[string]float64, error) {
	self := t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return self, err
	}
	t.mu.Lock()
	doc := struct {
		Facts    map[string]any     `json:"facts"`
		SelfTime map[string]float64 `json:"self_time_s"`
		Spans    []span             `json:"spans"`
	}{facts, self, t.spans}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return self, err
	}
	return self, os.WriteFile(path, buf, 0o644)
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
