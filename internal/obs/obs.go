// Package obs is the live operator plane: an HTTP server exposing a
// running simulation's telemetry registry as a Prometheus text
// exposition (/metrics), its flight recorder as NDJSON streams
// (/events, /spans), a registry snapshot with a diff-since-cursor form
// (/snapshot), and a small control surface (/ops/...) wired to the
// tsm/faults hooks — drain a drive, quarantine a volume, retune the
// scrubber — so a scripted (or human) operator can detect a failure
// from scraped metrics and act on it while the campaign is still
// running. Pair it with Clock.SetPace so there is wall-clock time to
// observe in.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// snapshotSchema identifies /snapshot JSON documents.
const snapshotSchema = "archsim-snapshot/v1"

// Server serves one simulation's operator plane.
type Server struct {
	clock *simtime.Clock
	tel   *telemetry.Registry
	gate  *Gate
	act   Actions

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
	url  string
}

// New builds a server over the clock's registry. Zero-value Actions
// disable the corresponding /ops endpoints.
func New(clock *simtime.Clock, act Actions) *Server {
	s := &Server{
		clock: clock,
		tel:   telemetry.Of(clock),
		gate:  newGate(clock),
		act:   act,
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/spans", s.handleSpans)
	s.mux.HandleFunc("/ops/drain-drive", s.handleDrainDrive)
	s.mux.HandleFunc("/ops/quarantine-volume", s.handleQuarantine)
	s.mux.HandleFunc("/ops/scrub-interval", s.handleScrubInterval)
	return s
}

// Gate exposes the server's simulation gate, for callers that need
// reads of their own (the E22 drill snapshots through it).
func (s *Server) Gate() *Gate { return s.gate }

// Start listens on addr (":0" for an ephemeral port) and serves in the
// background. It returns the base URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.mux}
	go func() { _ = s.http.Serve(ln) }()
	return s.url, nil
}

// Settle marks the simulation finished (call after clock.Run returns):
// handlers switch from scheduler-injected reads to direct ones, and
// open streams drain and end.
func (s *Server) Settle() { s.gate.settle() }

// Close stops listening and tears the server down.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `archsim operator plane
  GET  /metrics                   Prometheus text exposition (?ts=1 adds virtual-ms timestamps)
  GET  /snapshot                  registry snapshot JSON (?since_ns=N for points updated since)
  GET  /events                    NDJSON event stream (?follow=0 for a one-shot dump)
  GET  /spans                     NDJSON span stream (?follow=0 for the flight dump)
  POST /ops/drain-drive?drive=D   fail a drive out of service (&restore=1 to undrain)
  POST /ops/quarantine-volume?volume=V   exclude a volume from writes (&restore=1 to lift)
  POST /ops/scrub-interval?interval=5m   retune the scrub cadence
virtual time now: %s
`, time.Duration(s.clock.Now()))
}

func (s *Server) snapshot() *telemetry.Snapshot {
	var snap *telemetry.Snapshot
	s.gate.Do(func() { snap = s.tel.Snapshot() })
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WriteExposition(w, r.URL.Query().Get("ts") == "1")
}

// pointJSON mirrors telemetry.Point with JSON-encodable keys (a
// float64-keyed quantile map does not marshal).
type pointJSON struct {
	Name      string             `json:"name"`
	Kind      string             `json:"kind"`
	Labels    []telemetry.Label  `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Buckets   map[string]float64 `json:"buckets,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Count     float64            `json:"count,omitempty"`
	UpdatedNs simtime.Duration   `json:"updated_ns,omitempty"`
}

type snapshotJSON struct {
	Schema   string           `json:"schema"`
	AtNs     simtime.Duration `json:"at_ns"`
	SinceNs  simtime.Duration `json:"since_ns,omitempty"`
	CursorNs simtime.Duration `json:"cursor_ns"`
	Points   []pointJSON      `json:"points"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var since simtime.Duration
	if q := r.URL.Query().Get("since_ns"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			http.Error(w, "bad since_ns", http.StatusBadRequest)
			return
		}
		since = simtime.Duration(n)
	}
	snap := s.snapshot()
	doc := snapshotJSON{Schema: snapshotSchema, AtNs: snap.At, SinceNs: since, CursorNs: snap.At}
	for _, p := range snap.Points {
		// The diff form keeps points updated after the cursor. Func-
		// collected series carry no update stamp (the subsystem owns
		// the state) and are always included.
		if since > 0 && p.Updated != 0 && p.Updated <= since {
			continue
		}
		pj := pointJSON{
			Name: p.Name, Kind: p.Kind, Labels: p.Labels, Value: p.Value,
			Sum: p.Sum, Count: p.Count, UpdatedNs: p.Updated,
		}
		if len(p.Buckets) > 0 {
			pj.Buckets = make(map[string]float64, len(p.Buckets))
			for d, c := range p.Buckets {
				pj.Buckets[strconv.Itoa(d)] = c
			}
		}
		if len(p.Quantiles) > 0 {
			pj.Quantiles = make(map[string]float64, len(p.Quantiles))
			for q, v := range p.Quantiles {
				pj.Quantiles[strconv.FormatFloat(q, 'g', -1, 64)] = v
			}
		}
		doc.Points = append(doc.Points, pj)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
