package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's own calls into
// the system; spans inside the engine are a later issue. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one operation (a cycle, a round, an
// insert) share Op; Parent is the index of the span that caused this
// one, -1 for the operation's root.
type span struct {
	Op      string  `json:"op"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type spanRef struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// start opens a span under parent (nil = root of operation op).
func (t *tracer) start(parent *spanRef, op, name string) *spanRef {
	if t == nil {
		return nil
	}
	p := -1
	if parent != nil {
		p = parent.id
	}
	now := t.us()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: p, StartUS: now})
	return &spanRef{t: t, id: len(t.spans) - 1}
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := s.t.us()
	s.t.mu.Lock()
	if sp := &s.t.spans[s.id]; sp.EndUS == 0 { // a deferred end after an explicit one changes nothing
		sp.EndUS = now
	}
	s.t.mu.Unlock()
}

// selfTimes returns, per span name, the median over operations of the
// name's self time in ms: a span's duration minus the part its children
// cover. The root's self time is what no child span accounts for.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndUS - s.StartUS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	perOp := map[string]map[string]float64{} // name → op → ms
	for i, s := range t.spans {
		if perOp[s.Name] == nil {
			perOp[s.Name] = map[string]float64{}
		}
		perOp[s.Name][s.Op] += self[i] / 1000
	}
	out := map[string]float64{}
	for name, ops := range perOp {
		vals := make([]float64, 0, len(ops))
		for _, v := range ops {
			vals = append(vals, v)
		}
		out[name] = median(vals)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------------
// Samples

// recorder collects latency samples in ms by series name. Each client
// goroutine owns one; merge combines them after the window.
type recorder map[string][]float64

func (r recorder) add(name string, d time.Duration) {
	r[name] = append(r[name], ms(d))
}

func merge(rs []recorder) recorder {
	out := recorder{}
	for _, r := range rs {
		for k, v := range r {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

// quantile is the nearest-rank quantile; 0 for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median averages the two middle values of an even sample, so a
// five-or-six-cycle workload does not flip between neighbours.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		m = max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
