// Multi-site federation: a Site groups cells — each with its own
// archive file system, TSM server, and tape library — behind a WAN
// endpoint, and sites are joined by named, bandwidth-capped fabric
// links. This is the disaster-recovery layer ROADMAP item 2 asks for:
// replication crosses the WAN links (replicate.go), a whole site is a
// single fault-injection target ("site:<name>", the compound fault
// that downs its cells, mover nodes, and WAN trunks together), and
// route selection walks around dead links so surviving sites keep
// talking during a partition.

package federation

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/simtime"
)

// Multi-site errors.
var (
	// ErrNoRoute means every WAN path between two sites crosses a dead
	// link — the partition case replication parks on.
	ErrNoRoute = errors.New("federation: no WAN route")
	// ErrNoSite means a cell or name resolves to no known site.
	ErrNoSite = errors.New("federation: no such site")
)

// Site is one archive installation: the cells it hosts and the mover
// machines they run on, reachable from other sites only through WAN
// links attached to its endpoint.
type Site struct {
	Name  string
	Cells []*Cell
	// Nodes are the mover machines the site owns. A site kill downs
	// them with the cells, so in-flight migrations on the dead site
	// requeue instead of quietly finishing on ghost hardware.
	Nodes []*cluster.Node

	// status is the site's health in the fault registry, bound by
	// NewMultiSite.
	status *faults.Status
}

// NewSite assembles a site over its cells; the site's mover nodes are
// its cells' cluster machines.
func NewSite(name string, cells ...*Cell) *Site {
	s := &Site{Name: name, Cells: cells}
	for _, c := range cells {
		s.Nodes = append(s.Nodes, c.Cluster.Nodes()...)
	}
	return s
}

// Endpoint names the site's WAN attachment point in the fabric.
func (s *Site) Endpoint() string { return "wan:" + s.Name }

// Down reports whether the whole site is failed.
func (s *Site) Down() bool { return s.status.Down() }

// SetDown fails or revives the whole site. It routes through the fault
// registry, so once Federation.InstallFaults has subscribed the
// dispatcher the compound expansion — cells, nodes, WAN links — runs
// exactly as for a scheduled site kill.
func (s *Site) SetDown(down bool) { s.status.SetDown(down) }

// CellFor routes a path to the site-local cell that stores replicas
// for it, with the same top-component hash the federation uses for
// primary placement — deterministic, so the failover path recomputes
// the very cell the replicator picked.
func (s *Site) CellFor(path string) *Cell {
	h := fnv.New32a()
	h.Write([]byte(topComponent(path)))
	return s.Cells[int(h.Sum32())%len(s.Cells)]
}

// wanLink records one inter-site trunk.
type wanLink struct {
	name string
	a, b *Site
	link *fabric.Link
}

// NewMultiSite assembles a federation over several sites: the cells of
// every site, in site order, form the federated namespace, and each
// site's and cell's health binds to reg ("site:<name>",
// "cell:<name>"). Join the sites with AddWANLink before replicating or
// routing across them, and call InstallFaults to react to events.
func NewMultiSite(clock *simtime.Clock, reg *faults.Registry, sites ...*Site) (*Federation, error) {
	if len(sites) == 0 {
		return nil, ErrNoCells
	}
	var cells []*Cell
	siteOf := make(map[*Cell]*Site)
	for _, s := range sites {
		s.status = reg.ComponentStatus(faults.SiteComponent(s.Name))
		for _, c := range s.Cells {
			cells = append(cells, c)
			siteOf[c] = s
		}
	}
	f, err := New(clock, reg, cells...)
	if err != nil {
		return nil, err
	}
	f.sites = sites
	f.siteOf = siteOf
	f.wanDown = make(map[string]bool)
	return f, nil
}

// SiteByName resolves a site.
func (f *Federation) SiteByName(name string) (*Site, error) {
	for _, s := range f.sites {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSite, name)
}

// AddWANLink joins two sites with a named, bandwidth-capped fabric
// link. The link is a first-class fault target: "link:<name>" events
// degrade or fail it, and a site kill fails every WAN link touching
// the site. Returns the link (its name may be uniquified by the
// fabric).
func (f *Federation) AddWANLink(name string, rate float64, a, b *Site) *fabric.Link {
	l := fabric.Of(f.clock).AddLink(name, rate, a.Endpoint(), b.Endpoint())
	f.wan = append(f.wan, &wanLink{name: l.Name(), a: a, b: b, link: l})
	return l
}

// WANRoute resolves the fewest-hop WAN path between two sites that
// crosses no failed link. Failed links are routed AROUND, not crawled
// over: a partition should fail fast and park work in the replication
// backlog, not stall an actor on a 1%-speed trunk for days of virtual
// time. Same-site routes are empty (and free).
func (f *Federation) WANRoute(from, to *Site) (fabric.Path, error) {
	p, err := fabric.Of(f.clock).RouteAvoid(from.Endpoint(), to.Endpoint(), func(l *fabric.Link) bool {
		return f.wanDown[l.Name()]
	})
	if err != nil {
		return fabric.Path{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, from.Name, to.Name)
	}
	return p, nil
}

// HopDistance counts the WAN links between two sites on the current
// (fault-aware) route; -1 when partitioned. Nearest-replica selection
// sorts on it.
func (f *Federation) HopDistance(from, to *Site) int {
	p, err := f.WANRoute(from, to)
	if err != nil {
		return -1
	}
	return len(p.Names())
}

// InstallFaults subscribes the multi-site federation to the fault
// registry it was built on: archive.RecordFaults' prologue records
// every event first (so reactions find their cause on the books) and
// binds the fabric's links, and then the federation dispatcher handles
// the WAN-scale components:
//
//	site:<name>  the compound disaster fault — expands into cell
//	             failures, mover-node failures, and WAN-link failures
//	             for everything the site owns; the repair event
//	             reverses them all and kicks replication catch-up
//	link:<name>  WAN trunks flip their route-avoidance state (the
//	             fabric's own hook additionally crawls the link);
//	             repair kicks parked replication
//	node:<name>  mover machines of any site (for schedules that down
//	             nodes without archive.System in the loop)
func (f *Federation) InstallFaults(reg *faults.Registry) {
	archive.RecordFaults(f.clock, reg)
	reg.OnApply(func(ev faults.Event) {
		switch {
		case strings.HasPrefix(ev.Component, "site:"):
			if ev.Kind != faults.KindFail && ev.Kind != faults.KindRepair {
				return
			}
			site, err := f.SiteByName(strings.TrimPrefix(ev.Component, "site:"))
			if err != nil {
				return
			}
			f.expandSiteEvent(reg, site, ev.Kind)
		case strings.HasPrefix(ev.Component, "link:"):
			name := strings.TrimPrefix(ev.Component, "link:")
			for _, w := range f.wan {
				if w.name != name {
					continue
				}
				switch ev.Kind {
				case faults.KindFail:
					f.wanDown[name] = true
				case faults.KindRepair:
					delete(f.wanDown, name)
					if f.rep != nil {
						f.rep.kick()
					}
				}
			}
		case strings.HasPrefix(ev.Component, "node:"):
			if ev.Kind != faults.KindFail && ev.Kind != faults.KindRepair {
				return
			}
			name := strings.TrimPrefix(ev.Component, "node:")
			for _, s := range f.sites {
				for _, n := range s.Nodes {
					if n.Name == name {
						n.SetDown(ev.Kind == faults.KindFail)
					}
				}
			}
		}
	})
}

// expandSiteEvent applies a site kill or repair to everything the site
// owns. Constituents go through the registry (nested Apply is safe),
// so the fault log and telemetry record each cell, node, and link
// event individually — a failover span citing "why did this reroute"
// resolves to a concrete on-the-books event.
func (f *Federation) expandSiteEvent(reg *faults.Registry, site *Site, kind faults.Kind) {
	fail := kind == faults.KindFail
	for _, c := range site.Cells {
		if c.Down() != fail {
			c.SetDown(fail)
		}
		// The cell's TSM server flips too: replication and DR reads
		// against a dead site must fail fast (tsm.ErrServerDown), and
		// in-flight primary transactions block until repair, exactly
		// like the single-site outage model.
		c.TSM.SetDown(fail)
	}
	for _, n := range site.Nodes {
		reg.Apply(faults.Event{Component: faults.NodeComponent(n.Name), Kind: kind})
	}
	for _, w := range f.wan {
		if w.a == site || w.b == site {
			reg.Apply(faults.Event{Component: faults.LinkComponent(w.name), Kind: kind})
		}
	}
	if !fail && f.rep != nil {
		// Rejoin: everything parked during the outage drains now.
		f.rep.kick()
	}
}
