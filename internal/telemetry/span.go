package telemetry

import "repro/internal/simtime"

// Span is one timed phase of a file's life — a pftool job, an HSM
// store, a TSM session, a tape mount — linked to its parent phase, so
// a single file can be followed from `pfcp` dispatch down to the
// drive that wrote it. IDs are allocated from the same sequence as
// events, so a span's cause can point at a fault event unambiguously.
//
// A span is one allocation: Attrs is a window on the span's own inline
// array until a span carries more labels than it holds, and then
// append moves them to a slice of their own.
type Span struct {
	r *Registry

	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Attrs  []Label
	inline [3]Label // sized so that a Span stays in the 224-byte class
	openAt int      // index in the registry's open set while open

	StartAt simtime.Duration
	EndAt   simtime.Duration
	Status  string // "open", "ok", "aborted"

	// Cause and CauseEvent explain an abort: a human line plus the ID
	// of the telemetry event (usually a fault injection) that provoked
	// it, if one is known.
	Cause      string
	CauseEvent uint64
}

// Span status values.
const (
	statusOpen    = "open"
	StatusOK      = "ok"
	statusAborted = "aborted"
)

// StartSpan opens a root span. Attrs are "key", "value" pairs.
func (r *Registry) StartSpan(name string, kv ...string) *Span {
	return r.newSpan(0, name, kv)
}

// StartChild opens a span parented under sp.
func (sp *Span) StartChild(name string, kv ...string) *Span {
	return sp.r.newSpan(sp.ID, name, kv)
}

// ChildOf opens a span under parent, or a root span when parent is
// nil — for layers (tsm, tape) whose callers may or may not thread a
// trace through.
func ChildOf(r *Registry, parent *Span, name string, kv ...string) *Span {
	if parent == nil {
		return r.StartSpan(name, kv...)
	}
	return parent.StartChild(name, kv...)
}

func (r *Registry) newSpan(parent uint64, name string, kv []string) *Span {
	r.nextID++
	sp := &Span{
		r:       r,
		ID:      r.nextID,
		Parent:  parent,
		Name:    name,
		StartAt: r.clock.Now(),
		Status:  statusOpen,
		openAt:  len(r.open),
	}
	sp.Attrs = appendLabels(sp.inline[:0], kv)
	r.open = append(r.open, sp)
	return sp
}

// SetAttr adds or replaces one attribute.
func (sp *Span) SetAttr(key, value string) {
	for i := range sp.Attrs {
		if sp.Attrs[i].Key == key {
			sp.Attrs[i].Value = value
			return
		}
	}
	sp.Attrs = append(sp.Attrs, Label{Key: key, Value: value})
}

// SetCause records the telemetry event that provoked this span without
// closing it. Failover paths use it: the work *succeeds*, but only
// because a fault forced the reroute, so the span must cite the fault's
// event ID even though it ends with StatusOK. A later Abort carrying
// its own nonzero cause event overrides it.
func (sp *Span) SetCause(causeEvent uint64) {
	if sp == nil || sp.Status != statusOpen {
		return
	}
	sp.CauseEvent = causeEvent
}

// End closes the span successfully. Closing an already-closed span is
// a no-op: result handlers and cleanup paths may race benignly over
// who closes a job's span.
func (sp *Span) End() { sp.close(StatusOK, "", 0) }

// Abort closes the span as aborted — the phase did not complete
// (rank died, drive failed, invariant tripped) — recording why and,
// when known, which telemetry event (causeEvent, 0 for none) is to
// blame. Aborting an already-closed span is a no-op.
func (sp *Span) Abort(cause string, causeEvent uint64) {
	sp.close(statusAborted, cause, causeEvent)
}

func (sp *Span) close(status, cause string, causeEvent uint64) {
	if sp == nil || sp.Status != statusOpen {
		return
	}
	sp.Status = status
	sp.Cause = cause
	if causeEvent != 0 || sp.CauseEvent == 0 {
		sp.CauseEvent = causeEvent
	}
	sp.EndAt = sp.r.clock.Now()
	open := sp.r.open
	last := open[len(open)-1]
	open[sp.openAt], last.openAt = last, sp.openAt
	open[len(open)-1] = nil
	sp.r.open = open[:len(open)-1]
	sp.r.record(flightItem{span: sp})
}

// openSpans returns the spans not yet closed, in start (= ID) order.
func (r *Registry) openSpans() []*Span {
	out := append([]*Span(nil), r.open...)
	sortSpans(out)
	return out
}

// Event records a point-in-time occurrence (fault injected, repair
// applied) in the flight ring and returns its ID. If the attrs carry
// a "component" key, the event becomes that component's latest — the
// lookup abort paths use to name their cause.
func (r *Registry) Event(name string, kv ...string) uint64 {
	r.nextID++
	ev := &eventRec{
		ID:    r.nextID,
		Name:  name,
		Attrs: labelsOf(kv),
		At:    r.clock.Now(),
	}
	for _, l := range ev.Attrs {
		if l.Key == "component" {
			r.lastEvent[l.Value] = ev.ID
		}
	}
	r.record(flightItem{event: ev})
	return ev.ID
}

// LastEventFor reports the most recent event recorded against the
// component (by its "component" attribute), if any.
func (r *Registry) LastEventFor(component string) (uint64, bool) {
	id, ok := r.lastEvent[component]
	return id, ok
}

// eventRec is one recorded event.
type eventRec struct {
	ID    uint64
	Name  string
	Attrs []Label
	At    simtime.Duration
}
