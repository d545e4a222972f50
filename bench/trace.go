package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request share Op; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so call sites stay
// unconditional and the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation ID for the spans of one request.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(op, parent, name, time.Now(), time.Time{})
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a progress
// callback, an event timestamp). A zero end leaves the span open.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// call times fn inside a span.
func (t *tracer) call(op, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// durationsMS returns the duration of every closed span with the name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice; children are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one row of the per-layer span table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// table aggregates closed spans by name.
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(self[s.ID]) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
