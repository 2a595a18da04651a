package federation

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/tsm"
)

type siteEnv struct {
	clock *simtime.Clock
	fed   *Federation
	sites []*Site
	reg   *faults.Registry
}

// newSiteEnv builds an n-site federation (each site a plant with 2
// movers and a copy pool) joined in a WAN ring: wan-0-1 connects site 0
// to site 1, and so on around.
func newSiteEnv(t *testing.T, n int) *siteEnv {
	t.Helper()
	clock := simtime.NewClock()
	opts := siteOptions()
	opts.Cluster.Nodes = 2
	opts.CopyPoolCartridges = 8
	var plants []*archive.System
	for i := 0; i < n; i++ {
		opts.Site = fmt.Sprintf("site%d", i)
		plants = append(plants, archive.New(clock, opts))
	}
	reg := faults.New(clock)
	fed, err := New(clock, reg, plants...)
	if err != nil {
		t.Fatal(err)
	}
	sites := fed.Sites()
	for i := range sites {
		j := (i + 1) % n
		fed.AddWANLink(fmt.Sprintf("wan-%d-%d", i, j), 100e6, sites[i], sites[j])
	}
	fed.InstallFaults()
	return &siteEnv{clock: clock, fed: fed, sites: sites, reg: reg}
}

func (e *siteEnv) run(t *testing.T, fn func()) {
	t.Helper()
	e.clock.Go(fn)
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// seed creates files under a project owned by the given site. Project
// names are probed so the federation hash actually routes them to that
// site.
func (e *siteEnv) seed(t *testing.T, site *Site, n int, size int64) []pfs.Info {
	t.Helper()
	var project string
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("proj-%s-%02d", site.Name, i)
		if e.fed.SiteFor("/"+p) == site {
			project = p
			break
		}
	}
	if project == "" {
		t.Fatalf("no project hashes to %s", site.Name)
	}
	root := "/" + project
	if err := site.Archive.MkdirAll(root); err != nil {
		t.Fatal(err)
	}
	var infos []pfs.Info
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/f%03d", root, i)
		if err := site.Archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), size)); err != nil {
			t.Fatal(err)
		}
		info, _ := site.Archive.Stat(p)
		infos = append(infos, info)
	}
	return infos
}

func TestWANRouteAvoidsFailedLinks(t *testing.T) {
	e := newSiteEnv(t, 3)
	a, b := e.sites[0], e.sites[1]
	e.run(t, func() {
		p, err := e.fed.wanRoute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if names := p.Names(); len(names) != 1 || names[0] != "wan-0-1" {
			t.Fatalf("direct route = %v, want [wan-0-1]", names)
		}
		// Fail the direct trunk: routing detours through site2 instead
		// of crawling the dead link.
		e.reg.Apply(faults.Event{Component: faults.LinkComponent("wan-0-1"), Kind: faults.KindFail})
		p, err = e.fed.wanRoute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if names := p.Names(); len(names) != 2 {
			t.Fatalf("detour route = %v, want two hops via site2", names)
		}
		if got := e.fed.nearest(a, []*Site{e.sites[2], b}, true); got[0] != e.sites[2] {
			t.Errorf("live nearest to site0 = %s, want site2 while wan-0-1 is down", got[0].Name)
		}
		if got := e.fed.nearest(a, []*Site{e.sites[2], b}, false); got[0] != b {
			t.Errorf("static nearest to site0 = %s, want site1 (ties by name)", got[0].Name)
		}
		e.reg.Apply(faults.Event{Component: faults.LinkComponent("wan-0-1"), Kind: faults.KindRepair})
		if p, err := e.fed.wanRoute(a, b); err != nil || len(p.Names()) != 1 {
			t.Errorf("route after repair = %v, %v; want the direct trunk", p.Names(), err)
		}
	})
}

func TestSiteKillIsCompound(t *testing.T) {
	e := newSiteEnv(t, 3)
	victim := e.sites[1]
	// The exact fault log of a site kill or repair: the site event, the
	// site's TSM server, one event per mover node, one per WAN trunk
	// touching the site, and nothing else.
	expansion := func(kind faults.Kind) []string {
		log := []string{
			kind.String() + " " + faults.SiteComponent(victim.Name),
			kind.String() + " tsm:" + victim.Name,
		}
		for _, n := range victim.Cluster.Nodes() {
			log = append(log, kind.String()+" "+faults.NodeComponent(n.Name))
		}
		return append(log,
			kind.String()+" "+faults.LinkComponent("wan-0-1"),
			kind.String()+" "+faults.LinkComponent("wan-1-2"))
	}
	logSince := func(from int) []string {
		var out []string
		for _, ev := range e.reg.Log()[from:] {
			out = append(out, ev.Kind.String()+" "+ev.Component)
		}
		return out
	}
	e.run(t, func() {
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
		if !victim.down() {
			t.Error("site not down after site-kill")
		}
		if !e.reg.Down("tsm:" + victim.Name) {
			t.Error("site-kill left the site's TSM component up")
		}
		if err := storeReplica(victim); !errors.Is(err, tsm.ErrServerDown) {
			t.Errorf("replica store on the killed site: err = %v, want tsm.ErrServerDown", err)
		}
		for _, node := range victim.Cluster.Nodes() {
			if !node.Down() {
				t.Errorf("node %s survived the site-kill", node.Name)
			}
		}
		// Both WAN trunks touching the site are dead: the survivors
		// still talk to each other, nobody reaches the victim.
		if _, err := e.fed.wanRoute(e.sites[0], victim); !errors.Is(err, errNoRoute) {
			t.Errorf("route to dead site: err = %v, want ErrNoRoute", err)
		}
		if _, err := e.fed.wanRoute(e.sites[0], e.sites[2]); err != nil {
			t.Errorf("survivor route: %v", err)
		}
		if got, want := logSince(0), expansion(faults.KindFail); !reflect.DeepEqual(got, want) {
			t.Errorf("site-kill fault log = %q, want %q", got, want)
		}

		// Repair reverses everything.
		n := len(e.reg.Log())
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
		if got, want := logSince(n), expansion(faults.KindRepair); !reflect.DeepEqual(got, want) {
			t.Errorf("site-repair fault log = %q, want %q", got, want)
		}
		if victim.down() || e.reg.Down("tsm:"+victim.Name) {
			t.Error("site state not restored by repair")
		}
		if err := storeReplica(victim); err != nil {
			t.Errorf("replica store after repair: %v", err)
		}
		for _, node := range victim.Cluster.Nodes() {
			if node.Down() {
				t.Errorf("node %s still down after repair", node.Name)
			}
		}
		if p, err := e.fed.wanRoute(e.sites[0], victim); err != nil || len(p.Names()) != 1 {
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
		if !e.reg.Down("tsm:" + victim.Name) {
			t.Error("compound expansion did not run via SetDown")
		}
		if err := storeReplica(victim); !errors.Is(err, tsm.ErrServerDown) {
			t.Errorf("replica store on the downed site: err = %v, want tsm.ErrServerDown", err)
		}
		victim.SetDown(false)
		if victim.down() || e.reg.Down("tsm:"+victim.Name) {
			t.Error("repair via SetDown incomplete")
		}
		if err := storeReplica(victim); err != nil {
			t.Errorf("replica store after repair: %v", err)
		}
	})
}

// storeReplica writes one small replica to the site's copy pool: it
// fails fast with tsm.ErrServerDown while the site's server is down.
func storeReplica(site *Site) error {
	return site.TSM.StoreReplica("probe", "elsewhere", tsm.Object{ID: 1, Path: "/probe", Bytes: 1e6}, nil)
}

// A drive: event names one drive at one site: the site-named plants'
// drives carry their site, and each site's dispatcher handles only its
// own.
func TestDriveEventDownsOneDriveAtOneSite(t *testing.T) {
	e := newSiteEnv(t, 2)
	e.run(t, func() {
		e.reg.Apply(faults.Event{Component: faults.DriveComponent("site1-drive02"), Kind: faults.KindFail})
		var down []string
		for _, s := range e.sites {
			for _, d := range s.Library.Drives() {
				if d.Down() {
					down = append(down, s.Name+"/"+d.Name)
				}
			}
		}
		if want := []string{"site1/site1-drive02"}; !reflect.DeepEqual(down, want) {
			t.Errorf("drives down = %q, want %q", down, want)
		}
	})
}

// A volume: event marks one cartridge at one site and none elsewhere.
func TestVolumeEventMarksOneCartridgeAtOneSite(t *testing.T) {
	e := newSiteEnv(t, 2)
	e.run(t, func() {
		e.reg.Apply(faults.Event{Component: faults.VolumeComponent("site0-VOL0003"), Kind: faults.KindFail})
		var marked []string
		for _, s := range e.sites {
			for _, c := range s.Library.Cartridges() {
				if c.ReadOnly() {
					marked = append(marked, s.Name+"/"+c.Label)
				}
			}
		}
		if want := []string{"site0/site0-VOL0003"}; !reflect.DeepEqual(marked, want) {
			t.Errorf("read-only cartridges = %q, want %q", marked, want)
		}
	})
}

// tsm:<site> takes down that site's server alone, and a recall the
// outage aborts cites the event as its cause.
func TestTSMEventDownsOneServerAndIsCited(t *testing.T) {
	e := newSiteEnv(t, 2)
	victim, survivor := e.sites[0], e.sites[1]
	e.run(t, func() {
		obj, err := victim.TSM.Store(tsm.StoreRequest{Client: "probe", Path: "/probe/f", Bytes: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		e.reg.Apply(faults.Event{Component: "tsm:" + victim.Name, Kind: faults.KindFail})
		if err := storeReplica(victim); !errors.Is(err, tsm.ErrServerDown) {
			t.Errorf("replica store on %s: err = %v, want tsm.ErrServerDown", victim.Name, err)
		}
		if err := storeReplica(survivor); err != nil {
			t.Errorf("replica store on %s: %v; only %s's server is down", survivor.Name, err, victim.Name)
		}
		_, err = victim.TSM.Recall(tsm.RecallRequest{
			Client: "probe", ObjectID: obj.ID,
			QoS: sched.QoS{Deadline: e.clock.Now() + 30*time.Second},
		})
		if !errors.Is(err, sched.ErrDeadlineExceeded) {
			t.Fatalf("recall during the outage: err = %v, want the deadline to pass", err)
		}
		tel := telemetry.Of(e.clock)
		ev, ok := tel.LastEventFor("tsm:" + victim.Name)
		if !ok {
			t.Fatal("no event recorded against the server")
		}
		cited := false
		for _, sp := range tel.FlightDump().Aborted() {
			cited = cited || sp.Name == "tsm.recall" && sp.CauseEvent == ev
		}
		if !cited {
			t.Errorf("no aborted tsm.recall span cites the tsm:%s event %d", victim.Name, ev)
		}
	})
}

// Once tsm:<site> is repaired, a refusal is no longer the outage's
// doing: a recall refused an hour later for a passed deadline cites no
// fault event.
func TestRefusalAfterRepairCitesNoOutage(t *testing.T) {
	e := newSiteEnv(t, 2)
	victim := e.sites[0]
	e.run(t, func() {
		obj, err := victim.TSM.Store(tsm.StoreRequest{Client: "probe", Path: "/probe/f", Bytes: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		comp := "tsm:" + victim.Name
		e.reg.Apply(faults.Event{Component: comp, Kind: faults.KindFail})
		e.reg.Apply(faults.Event{Component: comp, Kind: faults.KindRepair})
		e.clock.Sleep(time.Hour)
		if _, err := victim.TSM.Recall(tsm.RecallRequest{
			Client: "probe", ObjectID: obj.ID, QoS: sched.QoS{Deadline: 1},
		}); !errors.Is(err, sched.ErrDeadlineExceeded) {
			t.Fatalf("recall past its deadline: err = %v, want the deadline to pass", err)
		}
		tel := telemetry.Of(e.clock)
		seen := false
		for _, sp := range tel.FlightDump().Aborted() {
			seen = seen || sp.Name == "tsm.recall"
			if sp.CauseEvent != 0 {
				t.Errorf("aborted %s span cites event %d, want 0: the server is up", sp.Name, sp.CauseEvent)
			}
		}
		if !seen {
			t.Error("no aborted tsm.recall span")
		}
	})
}

func TestSiteByNameRejectsUnknownSite(t *testing.T) {
	e := newSiteEnv(t, 3)
	if _, err := e.fed.SiteByName("nowhere"); !errors.Is(err, errNoSite) {
		t.Errorf("SiteByName err = %v, want ErrNoSite", err)
	}
}
