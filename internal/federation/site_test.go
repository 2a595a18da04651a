package federation

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

type siteEnv struct {
	clock *simtime.Clock
	fed   *Federation
	sites []*Site
	reg   *faults.Registry
}

// newSiteEnv builds an n-site federation (one cell per site, each a
// site-named plant with 2 movers and a copy pool) joined in a WAN ring:
// wan-0-1 connects site 0 to site 1, and so on around.
func newSiteEnv(t *testing.T, n int) *siteEnv {
	t.Helper()
	clock := simtime.NewClock()
	opts := cellOptions()
	opts.Cluster.Nodes = 2
	opts.CopyPoolCartridges = 8
	var sites []*Site
	for i := 0; i < n; i++ {
		opts.Site = fmt.Sprintf("site%d", i)
		cell := &Cell{Name: "cell-" + opts.Site, System: archive.New(clock, opts)}
		sites = append(sites, NewSite(opts.Site, cell))
	}
	reg := faults.New(clock, 1)
	fed, err := NewMultiSite(clock, reg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sites {
		j := (i + 1) % n
		fed.AddWANLink(fmt.Sprintf("wan-%d-%d", i, j), 100e6, sites[i], sites[j])
	}
	fed.InstallFaults(reg)
	return &siteEnv{clock: clock, fed: fed, sites: sites, reg: reg}
}

func (e *siteEnv) run(t *testing.T, fn func()) {
	t.Helper()
	e.clock.Go(fn)
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// seed creates files under a project owned by the given site's cell.
// Project names are probed so the federation hash actually routes them
// to that cell.
func (e *siteEnv) seed(t *testing.T, site *Site, n int, size int64) []pfs.Info {
	t.Helper()
	cell := site.Cells[0]
	var project string
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("proj-%s-%02d", site.Name, i)
		if e.fed.CellFor("/"+p) == cell {
			project = p
			break
		}
	}
	if project == "" {
		t.Fatalf("no project hashes to %s", cell.Name)
	}
	root := "/" + project
	if err := cell.Archive.MkdirAll(root); err != nil {
		t.Fatal(err)
	}
	var infos []pfs.Info
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/f%03d", root, i)
		if err := cell.Archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), size)); err != nil {
			t.Fatal(err)
		}
		info, _ := cell.Archive.Stat(p)
		infos = append(infos, info)
	}
	return infos
}

func TestWANRouteAvoidsFailedLinks(t *testing.T) {
	e := newSiteEnv(t, 3)
	a, b := e.sites[0], e.sites[1]
	e.run(t, func() {
		p, err := e.fed.WANRoute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if names := p.Names(); len(names) != 1 || names[0] != "wan-0-1" {
			t.Fatalf("direct route = %v, want [wan-0-1]", names)
		}
		// Fail the direct trunk: routing detours through site2 instead
		// of crawling the dead link.
		e.reg.Apply(faults.Event{Component: faults.LinkComponent("wan-0-1"), Kind: faults.KindFail})
		p, err = e.fed.WANRoute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if names := p.Names(); len(names) != 2 {
			t.Fatalf("detour route = %v, want two hops via site2", names)
		}
		if e.fed.HopDistance(a, b) != 2 {
			t.Errorf("HopDistance = %d, want 2", e.fed.HopDistance(a, b))
		}
		e.reg.Apply(faults.Event{Component: faults.LinkComponent("wan-0-1"), Kind: faults.KindRepair})
		if e.fed.HopDistance(a, b) != 1 {
			t.Errorf("HopDistance after repair = %d, want 1", e.fed.HopDistance(a, b))
		}
	})
}

func TestSiteKillIsCompound(t *testing.T) {
	e := newSiteEnv(t, 3)
	victim := e.sites[1]
	e.run(t, func() {
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
		if !victim.Down() {
			t.Error("site not down after site-kill")
		}
		cell := victim.Cells[0]
		if !cell.Down() {
			t.Error("cell survived the site-kill")
		}
		if !cell.TSM.Down() {
			t.Error("TSM server survived the site-kill")
		}
		for _, node := range victim.Nodes {
			if !node.Down() {
				t.Errorf("node %s survived the site-kill", node.Name)
			}
		}
		// Both WAN trunks touching the site are dead: the survivors
		// still talk to each other, nobody reaches the victim.
		if _, err := e.fed.WANRoute(e.sites[0], victim); !errors.Is(err, ErrNoRoute) {
			t.Errorf("route to dead site: err = %v, want ErrNoRoute", err)
		}
		if _, err := e.fed.WANRoute(e.sites[0], e.sites[2]); err != nil {
			t.Errorf("survivor route: %v", err)
		}
		// The log records the compound expansion: cell, nodes, links.
		var comps []string
		for _, ev := range e.reg.Log() {
			comps = append(comps, ev.Component)
		}
		joined := strings.Join(comps, " ")
		for _, want := range []string{
			faults.SiteComponent(victim.Name),
			faults.CellComponent(cell.Name),
			faults.NodeComponent(victim.Nodes[0].Name),
			faults.LinkComponent("wan-0-1"),
			faults.LinkComponent("wan-1-2"),
		} {
			if !strings.Contains(joined, want) {
				t.Errorf("fault log missing constituent %q", want)
			}
		}

		// Repair reverses everything.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
		if victim.Down() || cell.Down() || cell.TSM.Down() {
			t.Error("site state not restored by repair")
		}
		for _, node := range victim.Nodes {
			if node.Down() {
				t.Errorf("node %s still down after repair", node.Name)
			}
		}
		if e.fed.HopDistance(e.sites[0], victim) != 1 {
			t.Error("WAN links still avoided after repair")
		}
	})
}

func TestSiteSetDownRoutesThroughRegistry(t *testing.T) {
	e := newSiteEnv(t, 2)
	victim := e.sites[0]
	e.run(t, func() {
		victim.SetDown(true)
		if !e.reg.Down(faults.SiteComponent(victim.Name)) {
			t.Error("SetDown did not reach the registry")
		}
		if !victim.Cells[0].Down() {
			t.Error("compound expansion did not run via SetDown")
		}
		victim.SetDown(false)
		if victim.Down() || victim.Cells[0].Down() {
			t.Error("repair via SetDown incomplete")
		}
	})
}

func TestMultiSiteFederationFlattensCells(t *testing.T) {
	e := newSiteEnv(t, 3)
	if len(e.fed.Cells()) != 3 {
		t.Fatalf("cells = %d, want 3", len(e.fed.Cells()))
	}
	if _, err := e.fed.SiteByName("nowhere"); !errors.Is(err, ErrNoSite) {
		t.Errorf("SiteByName err = %v, want ErrNoSite", err)
	}
}
