package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the simulator, recorded by the
// benchmark around the call (the layers themselves are not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Req identifies the request, job or grid point the span belongs to;
	// spans of one request share it.
	Req   string `json:"req,omitempty"`
	Start int64  `json:"start_ns"` // since process start
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(procStart))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(procStart))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span (for intervals observed through
// callbacks, such as a scheduler hook and a later delivery).
func (t *tracer) add(layer, name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Req: req,
		Start: int64(start.Sub(procStart)), End: int64(end.Sub(procStart))})
	return len(t.spans)
}

// timed runs fn inside a span and returns its duration. It measures even
// on a nil tracer: the layer probes need the durations either way.
func (t *tracer) timed(layer, name string, parent int, req string, fn func()) time.Duration {
	id := t.begin(layer, name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// durations returns the durations of every closed span with the given
// layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// count reports the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// dump writes every span as one JSON document.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
