// Package telemetry is the unified observability substrate of the
// reproduction: one per-clock registry (mirroring fabric.Of's pattern)
// of counters, gauges and log10-bucketed histograms stamped with
// virtual time, plus span-based tracing that follows a file through
// the whole archive path (pftool job -> hsm store -> tsm session ->
// tape mount/seek/write) and a bounded flight recorder of recent
// spans and events that survives to a crash dump.
//
// Every layer reports through this one interface instead of bespoke
// result structs, so an experiment's headline number and the
// instrumented path are the same path: the registry's counter deltas
// ARE the bytes the movers moved.
//
// All registry state is mutated exclusively from simulation-actor
// context (or before/after the clock runs); the clock's single-actor
// execution serializes access, the same discipline every simtime
// primitive relies on, so no locking is needed.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// slot is the clock slot Of resolves; with one clock per island the
// registry is automatically island-local.
var slot = simtime.NewSlot()

func newForClock(clock *simtime.Clock) interface{} { return New(clock) }

// Of returns the registry shared by every component on the clock,
// creating it on first use. The lookup is allocation-free and lock-free
// after the first call (one atomic load), so hot paths may resolve it
// per operation. It must NOT be called from inside another component's
// SlotOf constructor (it holds the clock mutex while the constructor
// runs); resolve the handle lazily instead, the way fabric
// does.
func Of(clock *simtime.Clock) *Registry {
	return clock.SlotOf(slot, newForClock).(*Registry)
}

// Registry is one deployment's metric families, open spans, event log
// heads, and flight-recorder ring — or a view of them (With) whose
// series carry extra labels.
type Registry struct {
	*core
	scope []string // "key", "value" pairs every series looked up here carries
}

// core is the state a registry shares with its views.
type core struct {
	clock *simtime.Clock

	metrics map[string]*metric // by identity (name + sorted labels)
	kinds   map[string]metricKind
	order   []*metric // registration order: deterministic snapshots

	nextID    uint64  // shared span/event ID space; 0 = none
	open      []*Span // spans started and not yet closed, each at its openAt
	lastEvent map[string]uint64

	ring     []flightItem // bounded ring of closed spans + events
	ringCap  int
	ringNext int    // next overwrite position once the ring is full
	dropped  int    // records evicted by overwrite
	recSeq   uint64 // monotone count of records ever made (FlightSince cursor)
}

// defaultFlightCapacity bounds the flight recorder: enough recent
// history to explain a failure without letting a petabyte campaign
// accumulate millions of span records.
const defaultFlightCapacity = 4096

// New creates an empty registry on the clock. Most callers want Of.
func New(clock *simtime.Clock) *Registry {
	return &Registry{core: &core{
		clock:     clock,
		metrics:   make(map[string]*metric),
		kinds:     make(map[string]metricKind),
		lastEvent: make(map[string]uint64),
		ringCap:   defaultFlightCapacity,
	}}
}

// With returns a view of the registry: every series looked up through
// it also carries kv ("key", "value", ...), on top of r's own scope.
// The view shares r's series table, spans, events and flight ring, so
// its series land in r's snapshots. With() returns r itself.
func (r *Registry) With(kv ...string) *Registry {
	if len(kv) == 0 {
		return r
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list")
	}
	return &Registry{core: r.core, scope: append(r.scope[:len(r.scope):len(r.scope)], kv...)}
}

// Clock returns the simulation clock the registry stamps with.
func (r *Registry) Clock() *simtime.Clock { return r.clock }

// Label is one metric or span attribute.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// labelsOf pairs up a kv list ("key", "value", ...) and sorts by key.
func labelsOf(kv []string) []Label {
	return appendLabels(make([]Label, 0, len(kv)/2), kv)
}

// appendLabels is labelsOf into the empty slice out: it allocates only
// when kv holds more pairs than out's capacity.
func appendLabels(out []Label, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list")
	}
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	// Insertion sort, in place: call sites pass one to three labels with
	// distinct keys, and sort.Slice allocates a swapper and a closure.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key < out[j-1].Key; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindSummary:
		return "summary"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// metric is one time series: a (family, label set) pair.
type metric struct {
	name    string
	labels  []Label
	kind    metricKind
	val     float64
	fn      func() float64  // snapshot-time collection (nil = direct val)
	buckets map[int]float64 // histogram: decade -> count
	hsum    float64
	hcount  float64
	sample  *stats.Summary // summary: exact observations for quantiles
	updated simtime.Duration
}

// lookup finds or creates the series, enforcing one kind per family.
func (r *Registry) lookup(kind metricKind, name string, kv []string) *metric {
	if len(r.scope) > 0 {
		kv = append(kv[:len(kv):len(kv)], r.scope...)
	}
	labels := labelsOf(kv)
	id := name + labelString(labels)
	if m, ok := r.metrics[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (is %v)", id, kind, m.kind))
		}
		return m
	}
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: family %s re-registered as %v (is %v)", name, kind, have))
	}
	r.kinds[name] = kind
	m := &metric{name: name, labels: labels, kind: kind}
	if kind == kindHistogram {
		m.buckets = make(map[int]float64)
	}
	if kind == kindSummary {
		m.sample = &stats.Summary{}
	}
	r.metrics[id] = m
	r.order = append(r.order, m)
	return m
}

// Counter is a monotonically increasing series.
type Counter struct {
	r *core
	m *metric
}

// Counter finds or creates a counter series. Labels are "key", "value"
// pairs; the same (name, labels) identity always returns a handle to
// the same underlying series.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return &Counter{r: r.core, m: r.lookup(kindCounter, name, kv)}
}

// Add increments the counter by v (negative deltas panic: counters
// only go up, use a Gauge otherwise).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("telemetry: counter %s decremented", c.m.name))
	}
	c.m.val += v
	c.m.updated = c.r.clock.Now()
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current total.
func (c *Counter) Value() float64 { return c.m.val }

// CounterFunc registers a counter collected at snapshot time from fn —
// for series a subsystem already accounts (fabric link bytes, tape
// drive stats) where a hot-path write per byte moved would be waste.
// A second function on the same identity panics: two components
// registering one series is a wiring bug, not an overwrite.
func (r *Registry) CounterFunc(name string, fn func() float64, kv ...string) {
	r.lookup(kindCounter, name, kv).setFn(fn)
}

// Gauge is a series that can go up and down.
type Gauge struct {
	r *core
	m *metric
}

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return &Gauge{r: r.core, m: r.lookup(kindGauge, name, kv)}
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	g.m.val = v
	g.m.updated = g.r.clock.Now()
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta float64) { g.Set(g.m.val + delta) }

// GaugeFunc registers a gauge collected at snapshot time from fn; a
// second function on the same identity panics, as for CounterFunc.
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	r.lookup(kindGauge, name, kv).setFn(fn)
}

// setFn binds a function-backed series' collector, once.
func (m *metric) setFn(fn func() float64) {
	if m.fn != nil {
		panic(fmt.Sprintf("telemetry: %s%s already has a collector", m.name, labelString(m.labels)))
	}
	m.fn = fn
}

// Histogram buckets observations by order of magnitude (log10), the
// paper's figure scale: file sizes and job rates span seven decades.
type Histogram struct {
	r *core
	m *metric
}

// Histogram finds or creates a histogram series.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return &Histogram{r: r.core, m: r.lookup(kindHistogram, name, kv)}
}

// negDecade is the sentinel bucket for non-positive observations,
// below every real decade.
const negDecade = math.MinInt32

// Observe buckets one value by floor(log10(v)); non-positive values
// land in a sentinel bucket below every real one.
func (h *Histogram) Observe(v float64) {
	d := negDecade
	if v > 0 {
		d = int(math.Floor(math.Log10(v)))
	}
	h.m.buckets[d]++
	h.m.hsum += v
	h.m.hcount++
	h.m.updated = h.r.clock.Now()
}

// Count reports the number of observations.
func (h *Histogram) Count() float64 { return h.m.hcount }

// Sum reports the observation total.
func (h *Histogram) Sum() float64 { return h.m.hsum }

// Summary records every observation exactly and answers arbitrary
// quantiles — what the per-class queue-wait SLOs need. A decade
// histogram can say "between 100 s and 1000 s"; asserting that p99
// latencies are *ordered* across QoS classes needs the real
// percentile. Use a Histogram when volume is unbounded; summaries
// hold their observations in memory.
type Summary struct {
	r *core
	m *metric
}

// Summary finds or creates a summary series.
func (r *Registry) Summary(name string, kv ...string) *Summary {
	return &Summary{r: r.core, m: r.lookup(kindSummary, name, kv)}
}

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.m.sample.Add(v)
	s.m.hsum += v
	s.m.hcount++
	s.m.updated = s.r.clock.Now()
}

// Count reports the number of observations.
func (s *Summary) Count() float64 { return s.m.hcount }

// Quantile reports the q-quantile (q in [0,1]) of everything observed
// so far; 0 with no observations.
func (s *Summary) Quantile(q float64) float64 {
	if s.m.sample.N() == 0 {
		return 0
	}
	return s.m.sample.Percentile(q * 100)
}

// summaryQuantiles are the fixed quantiles exported in snapshots.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// Point is one series in a snapshot.
type Point struct {
	Name      string
	Kind      string
	Labels    []Label
	Value     float64             // counters and gauges
	Buckets   map[int]float64     // histograms: decade -> count
	Quantiles map[float64]float64 // summaries: q -> value
	Sum       float64
	Count     float64
	Updated   simtime.Duration // virtual time of the last direct update
}

// Label reports the value of one label key ("" if absent).
func (p Point) Label(key string) string { return labelValue(p.Labels, key) }

func labelValue(labels []Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Snapshot is the registry's state at one virtual instant, with every
// func-collected series resolved.
type Snapshot struct {
	At     simtime.Duration
	Points []Point
}

// Snapshot resolves every series (calling the collection funcs of
// CounterFunc/GaugeFunc series) and returns a copy sorted by family
// name then label identity.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{At: r.clock.Now()}
	for _, m := range r.order {
		p := Point{
			Name:    m.name,
			Kind:    m.kind.String(),
			Labels:  append([]Label(nil), m.labels...),
			Value:   m.val,
			Sum:     m.hsum,
			Count:   m.hcount,
			Updated: m.updated,
		}
		if m.fn != nil {
			p.Value = m.fn()
		}
		if m.kind == kindHistogram {
			p.Buckets = make(map[int]float64, len(m.buckets))
			for d, c := range m.buckets {
				p.Buckets[d] = c
			}
		}
		if m.kind == kindSummary && m.sample.N() > 0 {
			p.Quantiles = make(map[float64]float64, len(summaryQuantiles))
			for _, q := range summaryQuantiles {
				p.Quantiles[q] = m.sample.Percentile(q * 100)
			}
		}
		s.Points = append(s.Points, p)
	}
	sort.SliceStable(s.Points, func(i, j int) bool {
		if s.Points[i].Name != s.Points[j].Name {
			return s.Points[i].Name < s.Points[j].Name
		}
		return labelString(s.Points[i].Labels) < labelString(s.Points[j].Labels)
	})
	return s
}

// Value reports the value of the series with exactly the given name
// and labels (0 if absent).
func (s *Snapshot) Value(name string, kv ...string) float64 {
	want := name + labelString(labelsOf(kv))
	for _, p := range s.Points {
		if p.Name+labelString(p.Labels) == want {
			return p.Value
		}
	}
	return 0
}

// Family returns every series of one family, in label order.
func (s *Snapshot) Family(name string) []Point {
	var out []Point
	for _, p := range s.Points {
		if p.Name == name {
			out = append(out, p)
		}
	}
	return out
}

// Total sums a family's values across all label sets.
func (s *Snapshot) Total(name string) float64 {
	var sum float64
	for _, p := range s.Family(name) {
		sum += p.Value
	}
	return sum
}

// Text renders the snapshot as a Prometheus text exposition via the
// one shared renderer (see exposition.go): -metrics-text output and a
// live /metrics scrape are byte-for-byte the same serialization.
func (s *Snapshot) Text() string {
	var b strings.Builder
	s.WriteExposition(&b, false)
	return b.String()
}

// formatSample prints a sample value: integers exactly, the rest in
// compact scientific form.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
