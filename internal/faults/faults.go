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

// kindNames maps every Kind to its canonical string.
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

// Event is one fault (or repair) applied to one component.
type Event struct {
	At        simtime.Duration // virtual time of application (for scheduled events)
	Component string           // e.g. "drive:drive03", "node:fta02", "volume:VOL0001", "tsm", "tsm:east", "link:trunk"
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
// schedule written against one deployment wires up everywhere. A
// site-named plant's names carry its site (east-drive00, east-trunk).
func DriveComponent(name string) string   { return "drive:" + name }
func NodeComponent(name string) string    { return "node:" + name }
func VolumeComponent(label string) string { return "volume:" + label }
func LinkComponent(name string) string    { return "link:" + name }

// SiteComponent names a whole archive site. A site failure is the
// compound disaster-recovery fault: the federation's dispatcher expands
// the event into TSM-server, mover-node and WAN-link failures for every
// component the site owns, each applied through the registry, and the
// repair event reverses them all (the rejoin that triggers replication
// catch-up).
func SiteComponent(name string) string { return "site:" + name }

// TSMComponent names the TSM server of the plant at site: "tsm:<site>",
// or "tsm" for a plant alone on its clock (site "").
func TSMComponent(site string) string {
	if site == "" {
		return "tsm"
	}
	return "tsm:" + site
}

// Registry is the failure state of one deployment plus its schedule.
// All mutation happens on simulation actors (or before the clock runs),
// so no locking is needed: the clock serializes execution.
type Registry struct {
	clock    *simtime.Clock
	down     map[string]bool
	degraded map[string]float64 // component -> retained capacity fraction
	appliers []func(Event)
	log      []Event
}

// New creates a registry on the clock.
func New(clock *simtime.Clock) *Registry {
	return &Registry{
		clock:    clock,
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

// Log returns the events applied so far, in application order.
func (r *Registry) Log() []Event {
	return append([]Event(nil), r.log...)
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

// schedule arms an event to apply at its At time on the clock.
func (r *Registry) schedule(ev Event) {
	at := ev.At
	r.clock.At(at, func() { r.Apply(ev) })
}

// FailAt schedules a permanent failure of component at time at.
func (r *Registry) FailAt(component string, at simtime.Duration) {
	r.schedule(Event{At: at, Component: component, Kind: KindFail})
}

// Window schedules a fail-then-repair pair: the component goes down at
// `at` and comes back `outage` later (a mover crash-and-reboot window, a
// TSM server outage window).
func (r *Registry) Window(component string, at, outage simtime.Duration) {
	r.schedule(Event{At: at, Component: component, Kind: KindFail})
	r.schedule(Event{At: at + outage, Component: component, Kind: KindRepair})
}

// DegradeWindow schedules a degradation of component to factor of
// nominal capacity for the given duration, then full restoration.
func (r *Registry) DegradeWindow(component string, factor float64, at, dur simtime.Duration) {
	r.schedule(Event{At: at, Component: component, Kind: KindDegrade, Param: factor})
	r.schedule(Event{At: at + dur, Component: component, Kind: KindDegrade, Param: 1})
}

// Status is a handle onto one component's failure state, for subsystems
// (like a federation site) that keep their health in the
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
