package obs

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// The /events and /spans endpoints tail the flight-recorder ring as
// NDJSON: one JSON record per line, flushed as the simulation
// progresses, ending when the run settles (or the client hangs up).
// Records embed the exact FlightEvent/FlightSpan structs the
// -flight-record dump serializes, so the stream and the dump cannot
// drift. A tailer that polls slower than the ring turns over receives
// an explicit "missed" record instead of silent gaps.

// streamPoll is the real-time gap between ring reads while following.
const streamPoll = 50 * time.Millisecond

// streamRecord is one NDJSON line of /events or /spans.
type streamRecord struct {
	// Type: "event" (flight event), "span" (closed span), "span_open"
	// (span newly observed open), "missed" (ring overtook the tailer).
	Type   string                 `json:"type"`
	Missed int                    `json:"missed,omitempty"`
	Event  *telemetry.FlightEvent `json:"event,omitempty"`
	Span   *telemetry.FlightSpan  `json:"span,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, false)
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("follow") == "0" {
		// One-shot: the flight dump itself, the same document
		// -flight-record writes.
		var dump *telemetry.FlightDump
		s.gate.Do(func() { dump = s.tel.FlightDump() })
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dump)
		return
	}
	s.stream(w, r, true)
}

func (s *Server) stream(w http.ResponseWriter, r *http.Request, spans bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	oneShot := r.URL.Query().Get("follow") == "0"

	var cursor uint64
	announced := make(map[uint64]bool) // span IDs already sent as span_open
	for {
		var tail *telemetry.FlightTail
		s.gate.Do(func() { tail = s.tel.FlightSince(cursor) })
		fresh := tail.Cursor != cursor || cursor == 0
		cursor = tail.Cursor

		if tail.Missed > 0 {
			if err := enc.Encode(streamRecord{Type: "missed", Missed: tail.Missed}); err != nil {
				return
			}
		}
		if spans {
			for i := range tail.Open {
				sp := &tail.Open[i]
				if !announced[sp.ID] {
					announced[sp.ID] = true
					if err := enc.Encode(streamRecord{Type: "span_open", Span: sp}); err != nil {
						return
					}
				}
			}
			for i := range tail.Spans {
				sp := &tail.Spans[i]
				delete(announced, sp.ID)
				if err := enc.Encode(streamRecord{Type: "span", Span: sp}); err != nil {
					return
				}
			}
		} else {
			for i := range tail.Events {
				if err := enc.Encode(streamRecord{Type: "event", Event: &tail.Events[i]}); err != nil {
					return
				}
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if oneShot {
			return
		}
		if s.gate.settled() && !fresh {
			// The run is over and the ring is drained: end the stream.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(streamPoll):
		}
	}
}
