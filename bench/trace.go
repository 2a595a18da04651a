package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// host nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Trace   int    `json:"trace"`  // shared by the spans of one job
	Name    string `json:"name"`
	Module  string `json:"module"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory. Spans are opened and closed by the
// one driving actor, so they nest as a stack. A nil *tracer records
// nothing: the untraced run calls the same helpers.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indexes into spans
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace starts the next job: spans opened from here share its id.
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// in runs fn inside a span named name and owned by module.
func (t *tracer) in(module, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Trace: t.trace, Name: name, Module: module,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, idx)
	err := fn()
	t.spans[idx].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover (overlapping children are
// counted once), keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// moduleSelfSeconds sums span self time by owning module.
func moduleSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Module] += float64(self[s.ID]) / 1e9
	}
	return out
}

// spansWithin returns the spans that descend from a span named name.
// A span is recorded after its parent, so one pass finds them all.
func spansWithin(spans []span, name string) []span {
	inside := make(map[int]bool)
	var out []span
	for _, s := range spans {
		if inside[s.Parent] {
			out = append(out, s)
		}
		if inside[s.Parent] || s.Name == name {
			inside[s.ID] = true
		}
	}
	return out
}

// spanSeconds sums the duration of every span with the given name.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}
