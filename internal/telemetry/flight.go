package telemetry

import (
	"sort"

	"repro/internal/simtime"
)

// The flight recorder keeps the last few thousand closed spans and
// events in a bounded ring, so that when a chaos run dies the dump on
// disk holds the history that explains it — which jobs aborted, which
// fault fired first — without unbounded memory on long campaigns.

// flightItem is one ring slot: exactly one of span or event is set.
// seq is the record's position in the registry's monotone record
// sequence (1-based), the cursor space FlightSince tails by.
type flightItem struct {
	seq   uint64
	span  *Span
	event *eventRec
}

// SetFlightCapacity resizes the ring (minimum 1), dropping recorded
// history. Call it before a run, not during one.
func (r *Registry) SetFlightCapacity(n int) {
	if n < 1 {
		n = 1
	}
	r.ringCap = n
	r.ring = nil
	r.ringNext = 0
	r.dropped = 0
}

// record appends to the ring, overwriting the oldest slot when full.
func (r *Registry) record(it flightItem) {
	r.recSeq++
	it.seq = r.recSeq
	if len(r.ring) < r.ringCap {
		r.ring = append(r.ring, it)
		return
	}
	r.ring[r.ringNext] = it
	r.ringNext = (r.ringNext + 1) % r.ringCap
	r.dropped++
}

// flightSchema identifies flight-recorder dump files.
const flightSchema = "archsim-flight/v1"

// FlightSpan is one span in a dump.
type FlightSpan struct {
	ID         uint64           `json:"id"`
	Parent     uint64           `json:"parent,omitempty"`
	Name       string           `json:"name"`
	Attrs      []Label          `json:"attrs,omitempty"`
	StartNs    simtime.Duration `json:"start_ns"`
	EndNs      simtime.Duration `json:"end_ns,omitempty"`
	Status     string           `json:"status"`
	Cause      string           `json:"cause,omitempty"`
	CauseEvent uint64           `json:"cause_event,omitempty"`
}

// Attr returns the value of the named span attribute ("" if absent).
func (s FlightSpan) Attr(key string) string { return labelValue(s.Attrs, key) }

// FlightEvent is one event in a dump.
type FlightEvent struct {
	ID    uint64           `json:"id"`
	Name  string           `json:"name"`
	Attrs []Label          `json:"attrs,omitempty"`
	AtNs  simtime.Duration `json:"at_ns"`
}

// Attr returns the value of the named event attribute ("" if absent).
func (e FlightEvent) Attr(key string) string { return labelValue(e.Attrs, key) }

// FlightDump is the serializable flight-recorder contents: the ring's
// spans and events plus every still-open span (status "open"), all in
// ID order.
type FlightDump struct {
	Schema  string           `json:"schema"`
	AtNs    simtime.Duration `json:"at_ns"`
	Dropped int              `json:"dropped,omitempty"`
	Spans   []FlightSpan     `json:"spans"`
	Events  []FlightEvent    `json:"events"`
}

// FlightDump snapshots the recorder. Open spans are included so a
// crash dump shows what was in flight when the run died.
func (r *Registry) FlightDump() *FlightDump {
	d := &FlightDump{Schema: flightSchema, AtNs: r.clock.Now(), Dropped: r.dropped}
	var spans []*Span
	for _, it := range r.ring {
		switch {
		case it.span != nil:
			spans = append(spans, it.span)
		case it.event != nil:
			d.Events = append(d.Events, FlightEvent{
				ID: it.event.ID, Name: it.event.Name, Attrs: it.event.Attrs, AtNs: it.event.At,
			})
		}
	}
	spans = append(spans, r.openSpans()...)
	sortSpans(spans)
	for _, sp := range spans {
		d.Spans = append(d.Spans, FlightSpan{
			ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Attrs: sp.Attrs,
			StartNs: sp.StartAt, EndNs: sp.EndAt,
			Status: sp.Status, Cause: sp.Cause, CauseEvent: sp.CauseEvent,
		})
	}
	sort.Slice(d.Events, func(i, j int) bool { return d.Events[i].ID < d.Events[j].ID })
	return d
}

// Aborted returns the dump's aborted spans.
func (d *FlightDump) Aborted() []FlightSpan {
	var out []FlightSpan
	for _, sp := range d.Spans {
		if sp.Status == statusAborted {
			out = append(out, sp)
		}
	}
	return out
}

func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
}

// FlightTail is an incremental read of the flight ring: every record
// made after a cursor, in record order, plus the currently open spans.
// It is the paging unit behind the obs /events and /spans NDJSON
// streams.
type FlightTail struct {
	// Cursor names the last record included; pass it back to
	// FlightSince to receive only newer records. Cursors count records
	// ever made, so they stay valid across ring wraparound.
	Cursor uint64
	// Missed counts records that were evicted from the ring after the
	// cursor but before this read — the tailer polled too slowly for
	// the ring capacity.
	Missed int
	Spans  []FlightSpan  // closed spans recorded after the cursor
	Events []FlightEvent // events recorded after the cursor
	Open   []FlightSpan  // every currently open span (full set, status "open")
}

// FlightSince reads the ring records newer than cursor (0 = from the
// oldest retained record). Span and event records are value copies —
// safe to serialize after the simulation has moved on.
func (r *Registry) FlightSince(cursor uint64) *FlightTail {
	t := &FlightTail{Cursor: r.recSeq}
	if oldest := r.recSeq - uint64(len(r.ring)); cursor < oldest {
		t.Missed = int(oldest - cursor)
	}
	emit := func(it flightItem) {
		if it.seq <= cursor {
			return
		}
		switch {
		case it.span != nil:
			// Attr slices are deep-copied: the tail is serialized from
			// an HTTP goroutine after the simulation has moved on, and
			// a live span's Attrs may still be appended to.
			sp := it.span
			t.Spans = append(t.Spans, FlightSpan{
				ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
				Attrs:   append([]Label(nil), sp.Attrs...),
				StartNs: sp.StartAt, EndNs: sp.EndAt,
				Status: sp.Status, Cause: sp.Cause, CauseEvent: sp.CauseEvent,
			})
		case it.event != nil:
			t.Events = append(t.Events, FlightEvent{
				ID: it.event.ID, Name: it.event.Name,
				Attrs: append([]Label(nil), it.event.Attrs...),
				AtNs:  it.event.At,
			})
		}
	}
	// Oldest-to-newest: once the ring has wrapped, ringNext is the
	// oldest slot.
	if len(r.ring) == r.ringCap {
		for _, it := range r.ring[r.ringNext:] {
			emit(it)
		}
		for _, it := range r.ring[:r.ringNext] {
			emit(it)
		}
	} else {
		for _, it := range r.ring {
			emit(it)
		}
	}
	for _, sp := range r.openSpans() {
		t.Open = append(t.Open, FlightSpan{
			ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
			Attrs:   append([]Label(nil), sp.Attrs...),
			StartNs: sp.StartAt, Status: sp.Status, CauseEvent: sp.CauseEvent,
		})
	}
	return t
}
