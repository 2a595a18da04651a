package federation

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

type env struct {
	clock *simtime.Clock
	fed   *Federation
	reg   *faults.Registry
}

// siteOptions sizes one test site's plant: a 4-drive library, and an
// archive file system whose metadata operations and scans are free.
func siteOptions() archive.Options {
	opts := archive.DefaultOptions()
	opts.TapeDrives, opts.Cartridges, opts.Robots = 4, 32, 1
	opts.Archive.MetaOpCost = 0
	opts.Archive.ScanPerInode = 0
	return opts
}

// newEnv builds an n-site federation, each site a plant with its own
// movers and library.
func newEnv(t *testing.T, n int) *env {
	t.Helper()
	clock := simtime.NewClock()
	opts := siteOptions()
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
	return &env{clock: clock, fed: fed, reg: reg}
}

func (e *env) run(t *testing.T, fn func()) {
	t.Helper()
	e.clock.Go(fn)
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// seedProject creates a project's files in its owning site.
func (e *env) seedProject(t *testing.T, project string, n int, size int64) []pfs.Info {
	t.Helper()
	site := e.fed.SiteFor("/" + project)
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

func TestNewRequiresSites(t *testing.T) {
	clock := simtime.NewClock()
	if _, err := New(clock, faults.New(clock)); !errors.Is(err, errNoSites) {
		t.Errorf("err = %v, want ErrNoSites", err)
	}
}

func TestRoutingIsStableAndProjectGranular(t *testing.T) {
	e := newEnv(t, 3)
	a := e.fed.SiteFor("/projA/sub/file")
	b := e.fed.SiteFor("/projA/other/file2")
	if a != b {
		t.Error("same project routed to different sites")
	}
	if e.fed.SiteFor("/projA") != a {
		t.Error("project root routed differently")
	}
	// With several projects, more than one site gets used.
	used := make(map[*Site]bool)
	for i := 0; i < 20; i++ {
		used[e.fed.SiteFor(fmt.Sprintf("/proj%02d", i))] = true
	}
	if len(used) < 2 {
		t.Error("all projects landed in one site")
	}
}

func TestMigrateAndRecallAcrossSites(t *testing.T) {
	e := newEnv(t, 2)
	e.run(t, func() {
		var all []pfs.Info
		var paths []string
		for _, proj := range []string{"alpha", "beta", "gamma", "delta"} {
			infos := e.seedProject(t, proj, 5, 500e6)
			all = append(all, infos...)
			for _, i := range infos {
				paths = append(paths, i.Path)
			}
		}
		results, err := e.fed.Migrate(all, hsm.MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range results.Sites {
			total += r.Files
		}
		if total != 20 {
			t.Errorf("migrated %d files, want 20", total)
		}
		rres, err := e.fed.Recall(paths, hsm.RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		recalled := 0
		for _, r := range rres.Sites {
			recalled += r.Files
		}
		if recalled != 20 {
			t.Errorf("recalled %d files, want 20", recalled)
		}
	})
}

func TestSiteFailureIsPartial(t *testing.T) {
	e := newEnv(t, 2)
	e.run(t, func() {
		projA, projB := e.twoProjects(t)
		infosA := e.seedProject(t, projA, 3, 100e6)
		infosB := e.seedProject(t, projB, 3, 100e6)
		if _, err := e.fed.Migrate(append(infosA, infosB...), hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}

		// Kill projB's site: the paper's single-server design loses
		// everything; the federation keeps projA fully usable.
		e.fed.SiteFor("/" + projB).SetDown(true)
		if len(e.fed.HealthySlice()) != 1 {
			t.Errorf("healthy = %v", e.fed.HealthySlice())
		}
		if _, err := e.fed.Stat(infosB[0].Path); !errors.Is(err, ErrSiteDown) {
			t.Errorf("stat in down site: %v", err)
		}
		rres, err := e.fed.Recall([]string{infosA[0].Path, infosB[0].Path}, hsm.RecallOrdered)
		if !errors.Is(err, ErrSiteDown) {
			t.Errorf("recall err = %v, want ErrSiteDown", err)
		}
		recalled := 0
		for _, r := range rres.Sites {
			recalled += r.Files
		}
		if recalled != 1 {
			t.Errorf("healthy site recalled %d, want 1", recalled)
		}
		down := e.fed.SiteFor("/" + projB)
		if got := rres.Skipped[down.Name]; len(got) != 1 || got[0] != infosB[0].Path {
			t.Errorf("Skipped[%s] = %v, want [%s]", down.Name, got, infosB[0].Path)
		}
		if rres.SkippedCount() != 1 {
			t.Errorf("SkippedCount = %d, want 1", rres.SkippedCount())
		}

		// Revive and everything works again.
		down.SetDown(false)
		if _, err := e.fed.Stat(infosB[0].Path); err != nil {
			t.Errorf("stat after revive: %v", err)
		}
	})
}

func TestPartitionedPathQueriesScanLess(t *testing.T) {
	// The unindexed TSM path scan is 1/N the cost when each site holds
	// 1/N of the objects.
	scanTime := func(sites int) time.Duration {
		e := newEnv(t, sites)
		var elapsed time.Duration
		e.run(t, func() {
			var all []pfs.Info
			for i := 0; i < 12; i++ {
				infos := e.seedProject(t, fmt.Sprintf("proj%02d", i), 400, 1e5)
				all = append(all, infos...)
			}
			if _, err := e.fed.Migrate(all, hsm.MigrateOptions{}); err != nil {
				t.Fatal(err)
			}
			start := e.clock.Now()
			for i := 0; i < 50; i++ {
				p := all[i*7%len(all)].Path
				if _, err := e.fed.SiteFor(p).TSM.QueryByPath(p); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = e.clock.Now() - start
		})
		return elapsed
	}
	one := scanTime(1)
	four := scanTime(4)
	if four*2 > one {
		t.Errorf("4-site queries (%v) should be much cheaper than 1-site (%v)", four, one)
	}
}

func TestShadowLookupRoutes(t *testing.T) {
	e := newEnv(t, 2)
	e.run(t, func() {
		infos := e.seedProject(t, "rho", 2, 1e6)
		if _, err := e.fed.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		// The shadow row lands in the owning site's database only.
		owner := e.fed.SiteFor(infos[0].Path)
		for _, s := range e.fed.Sites() {
			rec, err := s.Shadow.ByFileID(uint64(infos[0].ID))
			if s == owner && (err != nil || rec.Path != infos[0].Path || rec.Volume == "") {
				t.Errorf("owner %s: ByFileID = %+v, %v", s.Name, rec, err)
			}
			if s != owner && err == nil {
				t.Errorf("site %s holds a shadow row for a path %s owns", s.Name, owner.Name)
			}
		}
	})
}

// Site health lives in the registry New binds.
func TestBindFaultsDrivesSiteHealth(t *testing.T) {
	e := newEnv(t, 3)
	reg := e.reg
	site := e.fed.Sites()[1]
	comp := faults.SiteComponent(site.Name)
	// A scheduled outage window takes the site down and back up.
	reg.Window(comp, 10*time.Second, 20*time.Second)
	e.run(t, func() {
		if site.down() {
			t.Error("site down before the scheduled outage")
		}
		e.clock.Sleep(15 * time.Second)
		if !site.down() {
			t.Error("site up during the scheduled outage")
		}
		if len(e.fed.HealthySlice()) != 2 {
			t.Errorf("healthy = %v, want 2 sites", e.fed.HealthySlice())
		}
		e.clock.Sleep(20 * time.Second)
		if site.down() {
			t.Error("site still down after the repair event")
		}
	})
}

// TestFanOutIsDeterministic runs the same federated campaign several
// times in fresh environments and demands bit-identical outcomes —
// the virtual end time included. Ranging a map of shares at spawn
// time would seed the engines' actors in a different order each run
// and break the simulator's bit-exact determinism contract; fanOut
// spawns in site order.
func TestFanOutIsDeterministic(t *testing.T) {
	type runResult struct {
		elapsed  simtime.Duration
		migrated Outcome[hsm.MigrateResult]
		recalled Outcome[hsm.RecallResult]
	}
	campaign := func() runResult {
		e := newEnv(t, 4)
		var rr runResult
		e.run(t, func() {
			var all []pfs.Info
			var paths []string
			for _, proj := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"} {
				infos := e.seedProject(t, proj, 4, 2e8)
				all = append(all, infos...)
				for _, i := range infos {
					paths = append(paths, i.Path)
				}
			}
			var err error
			rr.migrated, err = e.fed.Migrate(all, hsm.MigrateOptions{Balanced: true})
			if err != nil {
				t.Error(err)
			}
			rr.recalled, err = e.fed.Recall(paths, hsm.RecallOrdered)
			if err != nil {
				t.Error(err)
			}
			rr.elapsed = e.clock.Now()
		})
		return rr
	}
	first := campaign()
	for i := 0; i < 2; i++ {
		again := campaign()
		if again.elapsed != first.elapsed {
			t.Fatalf("run %d elapsed %v, first run %v: fan-out is nondeterministic", i+2, again.elapsed, first.elapsed)
		}
		if !reflect.DeepEqual(again.migrated, first.migrated) {
			t.Fatalf("run %d migrate outcome differs from first run", i+2)
		}
		if !reflect.DeepEqual(again.recalled, first.recalled) {
			t.Fatalf("run %d recall outcome differs from first run", i+2)
		}
	}
}

// TestSkippedSurfacesBeforeAndAfterBindFaults drives the down-site
// path through the registry: a SetDown lands there, Migrate skips the
// site's files and names them, and after repair the skip list requeues
// without loss.
func TestSkippedSurfacesBeforeAndAfterBindFaults(t *testing.T) {
	e := newEnv(t, 2)
	e.run(t, func() {
		projA, projB := e.twoProjects(t)
		infosA := e.seedProject(t, projA, 2, 1e6)
		infosB := e.seedProject(t, projB, 2, 1e6)
		down := e.fed.SiteFor("/" + projB)

		down.SetDown(true)
		if !e.reg.Down(faults.SiteComponent(down.Name)) {
			t.Fatal("registry did not see the SetDown")
		}
		out, err := e.fed.Migrate(append(infosA, infosB...), hsm.MigrateOptions{})
		if !errors.Is(err, ErrSiteDown) {
			t.Fatalf("migrate err = %v, want ErrSiteDown", err)
		}
		if got := out.Skipped[down.Name]; len(got) != 2 {
			t.Errorf("Skipped[%s] = %v, want both projB files", down.Name, got)
		}
		if want := []string{infosB[0].Path, infosB[1].Path}; !reflect.DeepEqual(out.SkippedPaths(), want) {
			t.Errorf("SkippedPaths = %v, want %v", out.SkippedPaths(), want)
		}
		// Requeue the skip list after repair: nothing is lost.
		down.SetDown(false)
		var requeue []pfs.Info
		for _, p := range out.SkippedPaths() {
			info, err := down.Archive.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			requeue = append(requeue, info)
		}
		out2, err := e.fed.Migrate(requeue, hsm.MigrateOptions{})
		if err != nil || out2.Sites[down.Name].Files != 2 {
			t.Errorf("requeue migrated %d files (err %v), want 2", out2.Sites[down.Name].Files, err)
		}
	})
}

// TestSiteComponentRoundTrip pins the component-name contract the
// dispatcher's site: prefix relies on.
func TestSiteComponentRoundTrip(t *testing.T) {
	for _, name := range []string{"site0", "a-b.c", ""} {
		comp := faults.SiteComponent(name)
		if !strings.HasPrefix(comp, "site:") {
			t.Fatalf("SiteComponent(%q) = %q, want site: prefix", name, comp)
		}
		if got := strings.TrimPrefix(comp, "site:"); got != name {
			t.Errorf("round trip of %q via %q gave %q", name, comp, got)
		}
	}
}

func TestSetDownRoutesThroughRegistry(t *testing.T) {
	e := newEnv(t, 2)
	reg := e.reg
	site := e.fed.Sites()[1]
	site.SetDown(true)
	if !reg.Down(faults.SiteComponent(site.Name)) {
		t.Error("SetDown did not reach the registry")
	}
	if n := len(reg.Log()); n != 1 {
		t.Errorf("registry log has %d events, want 1", n)
	}
	site.SetDown(false)
	if site.down() {
		t.Error("repair via SetDown not visible")
	}
}

// twoProjects finds two projects owned by different sites.
func (e *env) twoProjects(t *testing.T) (string, string) {
	t.Helper()
	projA := "proj00"
	for i := 1; i < 100; i++ {
		p := fmt.Sprintf("proj%02d", i)
		if e.fed.SiteFor("/"+p) != e.fed.SiteFor("/"+projA) {
			return projA, p
		}
	}
	t.Skip("hash put all probes in one site")
	return "", ""
}
