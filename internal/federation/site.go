// Multi-site federation: each Site is one archive plant — its archive
// file system, TSM server, tape library and mover machines — behind a
// WAN endpoint, and sites are joined by named, bandwidth-capped fabric
// links. This is the disaster-recovery layer: replication crosses the
// WAN links (replicate.go), a whole site is a single fault-injection
// target ("site:<name>", the compound fault that downs its TSM server,
// mover nodes, and WAN trunks together), and route selection walks
// around dead links so surviving sites keep talking during a partition.

package federation

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/fabric"
	"repro/internal/faults"
)

// Multi-site errors.
var (
	// errNoRoute means every WAN path between two sites crosses a dead
	// link — the partition case replication parks on.
	errNoRoute = errors.New("federation: no WAN route")
	// errNoSite means a name resolves to no known site.
	errNoSite = errors.New("federation: no such site")
)

// Site is one archive plant under its federation-wide name (the plant's
// Options.Site), reachable from other sites only through WAN links
// attached to its endpoint.
type Site struct {
	Name string
	*archive.System

	// status is the site's health in the fault registry, bound by New.
	status *faults.Status
}

// endpoint names the site's WAN attachment point in the fabric.
func (s *Site) endpoint() string { return "wan:" + s.Name }

// down reports whether the whole site is failed.
func (s *Site) down() bool { return s.status.Down() }

// SetDown fails or revives the whole site. It routes through the fault
// registry, so the event lands in the registry's log and reaches its
// subscribers like any other injected fault; once
// Federation.InstallFaults has subscribed the dispatcher, the compound
// expansion — TSM server, nodes, WAN links — runs exactly as for a
// scheduled site kill.
func (s *Site) SetDown(down bool) { s.status.SetDown(down) }

// wanLink records one inter-site trunk.
type wanLink struct {
	name string
	a, b *Site
}

// SiteByName resolves a site.
func (f *Federation) SiteByName(name string) (*Site, error) {
	for _, s := range f.sites {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", errNoSite, name)
}

// AddWANLink joins two sites with a named, bandwidth-capped fabric
// link. The link is a first-class fault target: "link:<name>" events
// degrade or fail it, and a site kill fails every WAN link touching
// the site. A name already taken on the clock's fabric panics.
func (f *Federation) AddWANLink(name string, rate float64, a, b *Site) {
	fabric.Of(f.clock).AddLink(name, rate, a.endpoint(), b.endpoint())
	f.wan = append(f.wan, &wanLink{name: name, a: a, b: b})
}

// linkDown reports whether the fault registry holds a link as failed.
func (f *Federation) linkDown(l *fabric.Link) bool {
	return f.reg.Down(faults.LinkComponent(l.Name()))
}

// wanRoute resolves the fewest-hop WAN path between two sites that
// crosses no failed link. Failed links are routed AROUND, not crawled
// over: a partition should fail fast and park work in the replication
// backlog, not stall an actor on a 1%-speed trunk for days of virtual
// time. Same-site routes are empty (and free).
func (f *Federation) wanRoute(from, to *Site) (fabric.Path, error) {
	p, err := fabric.Of(f.clock).RouteAvoid(from.endpoint(), to.endpoint(), f.linkDown)
	if err != nil {
		return fabric.Path{}, fmt.Errorf("%w: %s -> %s", errNoRoute, from.Name, to.Name)
	}
	return p, nil
}

// nearest sorts sites by WAN hop count from `from`, ties by name, and
// returns them. With live the count follows the current route around
// failed links; without it, the static distance on the full topology,
// so that replica placement does not flap with transient faults. A
// site with no route sorts last.
func (f *Federation) nearest(from *Site, sites []*Site, live bool) []*Site {
	var avoid func(*fabric.Link) bool
	if live {
		avoid = f.linkDown
	}
	hops := make(map[*Site]int, len(sites))
	for _, s := range sites {
		hops[s] = 1 << 20
		if p, err := fabric.Of(f.clock).RouteAvoid(from.endpoint(), s.endpoint(), avoid); err == nil {
			hops[s] = len(p.Names())
		}
	}
	sort.SliceStable(sites, func(i, j int) bool {
		if hops[sites[i]] != hops[sites[j]] {
			return hops[sites[i]] < hops[sites[j]]
		}
		return sites[i].Name < sites[j].Name
	})
	return sites
}

// InstallFaults subscribes the federation to the fault registry it was
// built on. archive.InstallFaults records every event once (so
// reactions find their cause on the books), binds the fabric's links
// and subscribes each site plant's dispatcher, which handles the
// site's drives, volumes, nodes and TSM server by their site-scoped
// names. The federation dispatcher then handles the WAN-scale
// components:
//
//	site:<name>  the compound disaster fault — expands into the site's
//	             TSM-server, mover-node and WAN-link events; the repair
//	             event reverses them all and kicks replication catch-up
//	link:<name>  a WAN trunk's repair kicks parked replication (WANRoute
//	             reads the link's state from the registry, and the
//	             fabric's own hook crawls a failed link)
func (f *Federation) InstallFaults() {
	plants := make([]*archive.System, len(f.sites))
	for i, s := range f.sites {
		plants[i] = s.System
	}
	archive.InstallFaults(f.reg, plants...)
	f.reg.OnApply(func(ev faults.Event) {
		if ev.Kind != faults.KindFail && ev.Kind != faults.KindRepair {
			return
		}
		switch {
		case strings.HasPrefix(ev.Component, "site:"):
			if site, err := f.SiteByName(strings.TrimPrefix(ev.Component, "site:")); err == nil {
				f.expandSiteEvent(site, ev.Kind)
			}
		case strings.HasPrefix(ev.Component, "link:"):
			name := strings.TrimPrefix(ev.Component, "link:")
			for _, w := range f.wan {
				if w.name == name && ev.Kind == faults.KindRepair && f.rep != nil {
					f.rep.kick()
				}
			}
		}
	})
}

// expandSiteEvent applies a site kill or repair to everything the site
// owns. Constituents go through the registry (nested Apply is safe),
// so the fault log and telemetry record each server, node and link
// event individually — a failover span citing "why did this reroute"
// resolves to a concrete on-the-books event.
func (f *Federation) expandSiteEvent(site *Site, kind faults.Kind) {
	// The TSM server flips first: replication and DR reads against a
	// dead site must fail fast (tsm.ErrServerDown), and in-flight
	// primary transactions block until repair, exactly like the
	// single-site outage model.
	f.reg.Apply(faults.Event{Component: site.TSM.Component(), Kind: kind})
	for _, n := range site.Cluster.Nodes() {
		f.reg.Apply(faults.Event{Component: faults.NodeComponent(n.Name), Kind: kind})
	}
	for _, w := range f.wan {
		if w.a == site || w.b == site {
			f.reg.Apply(faults.Event{Component: faults.LinkComponent(w.name), Kind: kind})
		}
	}
	if kind == faults.KindRepair && f.rep != nil {
		// Rejoin: everything parked during the outage drains now.
		f.rep.kick()
	}
}
