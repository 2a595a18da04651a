// Package faults is the deterministic fault-injection substrate of the
// reproduction. A Registry holds the failure state of named components
// (tape drives, cartridges, mover nodes, the TSM server, network links)
// and a schedule of fault events driven by the simulation clock:
// permanent drive failures, media gone read-only, mover crash-and-reboot
// windows, link degradation, server outage windows. Subsystems either
// poll a component's status at their natural decision points or
// subscribe to event application, and a seeded generator can expand a
// statistical fault profile into a concrete, reproducible schedule.
//
// The design follows the operational reality the paper reports (drives
// die and movers reboot during multi-day petabyte campaigns) and the
// TALICS³ observation that a credible tape-library model treats
// component failure and repair as first-class simulation events.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/simtime"
)

// Kind classifies a fault event.
type Kind int

// Fault kinds.
const (
	// KindFail takes the component out of service (a dead drive, a
	// crashed node, a server outage, a cartridge gone read-only).
	KindFail Kind = iota
	// KindRepair returns the component to service (reboot complete,
	// drive replaced, outage over).
	KindRepair
	// KindDegrade leaves the component in service at reduced capacity;
	// Param is the fraction of nominal capacity retained (0 < Param < 1
	// degrades, Param == 1 restores).
	KindDegrade
	// KindCorrupt silently damages data without taking the component
	// out of service: bit rot on a cartridge at rest, a flaky drive
	// head, a link flipping bits in flight. The component keeps
	// answering as if healthy — only checksum verification can tell.
	// Param meaning depends on the component: for volume: events it is
	// the position of the rotted byte as a fraction of the written
	// region; for drive: and link: events it is the number of upcoming
	// operations/transfers to taint (0 means one).
	KindCorrupt
)

// kindNames maps every Kind to its canonical string, the single source
// for String and KindFromString so the two can never disagree.
var kindNames = map[Kind]string{
	KindFail:    "fail",
	KindRepair:  "repair",
	KindDegrade: "degrade",
	KindCorrupt: "corrupt",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString parses a canonical kind name back to its Kind,
// reporting false for names no kind renders to.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one fault (or repair) applied to one component.
type Event struct {
	At        simtime.Duration // virtual time of application (for scheduled events)
	Component string           // e.g. "drive:drive03", "node:fta02", "volume:VOL0001", "tsm", "link:trunk"
	Kind      Kind
	Param     float64 // KindDegrade: fraction of nominal capacity retained
}

func (e Event) String() string {
	switch e.Kind {
	case KindDegrade:
		return fmt.Sprintf("%v %s %s x%.2f", e.At, e.Kind, e.Component, e.Param)
	case KindCorrupt:
		return fmt.Sprintf("%v %s %s @%.3f", e.At, e.Kind, e.Component, e.Param)
	}
	return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Component)
}

// Component name helpers: every subsystem agrees on these prefixes so a
// schedule written against one deployment wires up everywhere.
func DriveComponent(name string) string   { return "drive:" + name }
func NodeComponent(name string) string    { return "node:" + name }
func VolumeComponent(label string) string { return "volume:" + label }
func LinkComponent(name string) string    { return "link:" + name }
func CellComponent(name string) string    { return "cell:" + name }

// SiteComponent names a whole archive site. A site failure is the
// compound disaster-recovery fault: the federation's dispatcher expands
// it into cell, mover-node, and WAN-link failures for every component
// the site owns, and the repair event reverses them all (the rejoin
// that triggers replication catch-up).
func SiteComponent(name string) string { return "site:" + name }

// TSMComponent is the single TSM server of a deployment.
const TSMComponent = "tsm"

// Registry is the failure state of one deployment plus its schedule.
// All mutation happens on simulation actors (or before the clock runs),
// so no locking is needed: the clock serializes execution.
type Registry struct {
	clock    *simtime.Clock
	rng      *rand.Rand
	down     map[string]bool
	degraded map[string]float64 // component -> retained capacity fraction
	appliers []func(Event)
	log      []Event
}

// New creates a registry on the clock. The seed drives GenerateSchedule
// only; explicit schedules are unaffected by it.
func New(clock *simtime.Clock, seed int64) *Registry {
	return &Registry{
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
		down:     make(map[string]bool),
		degraded: make(map[string]float64),
	}
}

// OnApply subscribes fn to every event application (immediate and
// scheduled). Subscribers run in registration order at the event's
// virtual time, after the registry's own state is updated.
func (r *Registry) OnApply(fn func(Event)) {
	r.appliers = append(r.appliers, fn)
}

// Down reports whether the component is currently failed.
func (r *Registry) Down(component string) bool { return r.down[component] }

// Capacity reports the component's retained capacity fraction: 1 when
// healthy, 0 when failed, the degradation factor in between.
func (r *Registry) Capacity(component string) float64 {
	if r.down[component] {
		return 0
	}
	if f, ok := r.degraded[component]; ok {
		return f
	}
	return 1
}

// Log returns the events applied so far, in application order.
func (r *Registry) Log() []Event {
	return append([]Event(nil), r.log...)
}

// DownCount reports how many components are currently failed.
func (r *Registry) DownCount() int {
	n := 0
	for _, d := range r.down {
		if d {
			n++
		}
	}
	return n
}

// Apply applies an event immediately (stamping it with the current
// virtual time when a clock is attached) and notifies subscribers.
func (r *Registry) Apply(ev Event) {
	if r.clock != nil {
		ev.At = r.clock.Now()
	}
	switch ev.Kind {
	case KindFail:
		r.down[ev.Component] = true
	case KindRepair:
		r.down[ev.Component] = false
		delete(r.degraded, ev.Component)
	case KindDegrade:
		if ev.Param <= 0 || ev.Param >= 1 {
			delete(r.degraded, ev.Component)
		} else {
			r.degraded[ev.Component] = ev.Param
		}
	case KindCorrupt:
		// Silent by design: the component stays in service at full
		// capacity. Subscribers (tape, fabric) arm the actual damage.
	}
	r.log = append(r.log, ev)
	for _, fn := range r.appliers {
		fn(ev)
	}
}

// Schedule arms an event to apply at its At time on the clock.
func (r *Registry) Schedule(ev Event) {
	at := ev.At
	r.clock.At(at, func() { r.Apply(ev) })
}

// FailAt schedules a permanent failure of component at time at.
func (r *Registry) FailAt(component string, at simtime.Duration) {
	r.Schedule(Event{At: at, Component: component, Kind: KindFail})
}

// Window schedules a fail-then-repair pair: the component goes down at
// `at` and comes back `outage` later (a mover crash-and-reboot window, a
// TSM server outage window).
func (r *Registry) Window(component string, at, outage simtime.Duration) {
	r.Schedule(Event{At: at, Component: component, Kind: KindFail})
	r.Schedule(Event{At: at + outage, Component: component, Kind: KindRepair})
}

// DegradeWindow schedules a degradation of component to factor of
// nominal capacity for the given duration, then full restoration.
func (r *Registry) DegradeWindow(component string, factor float64, at, dur simtime.Duration) {
	r.Schedule(Event{At: at, Component: component, Kind: KindDegrade, Param: factor})
	r.Schedule(Event{At: at + dur, Component: component, Kind: KindDegrade, Param: 1})
}

// Profile is a statistical fault load for GenerateSchedule: counts of
// each fault class to spread uniformly at random over a horizon.
type Profile struct {
	Horizon         simtime.Duration // events land in [0, Horizon)
	DriveFailures   int              // permanent drive failures
	Drives          []string         // drive names to draw victims from
	MediaFailures   int              // cartridges gone read-only
	Volumes         []string         // cartridge labels to draw victims from
	NodeCrashes     int              // mover crash-and-reboot windows
	Nodes           []string         // node names to draw victims from
	NodeRebootAfter simtime.Duration // crash window length (default 10 min)
	ServerOutages   int              // TSM server outage windows
	ServerOutageLen simtime.Duration // outage window length (default 2 min)
	LinkDegrades    int              // link degradation windows on Links
	Links           []string         // link names to draw victims from
	LinkFactor      float64          // retained capacity during degradation (default 0.5)
	LinkDegradeLen  simtime.Duration // degradation window length (default 30 min)
	MediaRots       int              // silent bit-rot events on cartridges (Volumes)
	LinkCorrupts    int              // silent in-flight corruptions on Links
	SiteKills       int              // whole-site outage windows (the DR drill)
	Sites           []string         // site names to draw victims from
	SiteOutageLen   simtime.Duration // site outage length (default 30 min)
}

// GenerateSchedule expands a statistical profile into a concrete event
// schedule using the registry's seeded generator: same seed and profile,
// same schedule. The schedule is returned sorted by time and is NOT yet
// armed; pass each event to Schedule.
func (r *Registry) GenerateSchedule(p Profile) []Event {
	if p.Horizon <= 0 {
		p.Horizon = time.Hour
	}
	if p.NodeRebootAfter <= 0 {
		p.NodeRebootAfter = 10 * time.Minute
	}
	if p.ServerOutageLen <= 0 {
		p.ServerOutageLen = 2 * time.Minute
	}
	if p.LinkDegradeLen <= 0 {
		p.LinkDegradeLen = 30 * time.Minute
	}
	if p.LinkFactor <= 0 || p.LinkFactor >= 1 {
		p.LinkFactor = 0.5
	}
	if p.SiteOutageLen <= 0 {
		p.SiteOutageLen = 30 * time.Minute
	}
	at := func() simtime.Duration {
		return simtime.Duration(r.rng.Int63n(int64(p.Horizon)))
	}
	pick := func(names []string) string {
		return names[r.rng.Intn(len(names))]
	}
	var evs []Event
	for i := 0; i < p.DriveFailures && len(p.Drives) > 0; i++ {
		evs = append(evs, Event{At: at(), Component: DriveComponent(pick(p.Drives)), Kind: KindFail})
	}
	for i := 0; i < p.MediaFailures && len(p.Volumes) > 0; i++ {
		evs = append(evs, Event{At: at(), Component: VolumeComponent(pick(p.Volumes)), Kind: KindFail})
	}
	for i := 0; i < p.NodeCrashes && len(p.Nodes) > 0; i++ {
		t := at()
		comp := NodeComponent(pick(p.Nodes))
		evs = append(evs,
			Event{At: t, Component: comp, Kind: KindFail},
			Event{At: t + p.NodeRebootAfter, Component: comp, Kind: KindRepair})
	}
	for i := 0; i < p.ServerOutages; i++ {
		t := at()
		evs = append(evs,
			Event{At: t, Component: TSMComponent, Kind: KindFail},
			Event{At: t + p.ServerOutageLen, Component: TSMComponent, Kind: KindRepair})
	}
	for i := 0; i < p.LinkDegrades && len(p.Links) > 0; i++ {
		t := at()
		comp := LinkComponent(pick(p.Links))
		evs = append(evs,
			Event{At: t, Component: comp, Kind: KindDegrade, Param: p.LinkFactor},
			Event{At: t + p.LinkDegradeLen, Component: comp, Kind: KindDegrade, Param: 1})
	}
	for i := 0; i < p.MediaRots && len(p.Volumes) > 0; i++ {
		evs = append(evs, Event{At: at(), Component: VolumeComponent(pick(p.Volumes)),
			Kind: KindCorrupt, Param: r.rng.Float64()})
	}
	for i := 0; i < p.LinkCorrupts && len(p.Links) > 0; i++ {
		evs = append(evs, Event{At: at(), Component: LinkComponent(pick(p.Links)),
			Kind: KindCorrupt, Param: 1})
	}
	for i := 0; i < p.SiteKills && len(p.Sites) > 0; i++ {
		t := at()
		comp := SiteComponent(pick(p.Sites))
		evs = append(evs,
			Event{At: t, Component: comp, Kind: KindFail},
			Event{At: t + p.SiteOutageLen, Component: comp, Kind: KindRepair})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Status is a handle onto one component's failure state, for subsystems
// (like a federation cell or site) that keep their health in the
// registry rather than in a flag of their own.
type Status struct {
	reg  *Registry
	comp string
}

// ComponentStatus returns a status handle for the named component.
func (r *Registry) ComponentStatus(component string) *Status {
	return &Status{reg: r, comp: component}
}

// Down reports whether the component is failed.
func (s *Status) Down() bool { return s.reg.Down(s.comp) }

// SetDown fails or repairs the component through the registry.
func (s *Status) SetDown(down bool) {
	k := KindRepair
	if down {
		k = KindFail
	}
	s.reg.Apply(Event{Component: s.comp, Kind: k})
}
