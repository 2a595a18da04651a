package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

// drOutcome carries everything the DR drill measured out of the
// simulation actor.
type drOutcome struct {
	siteNames []string
	victim    string
	n1, n2    int // files per site in waves 1 and 2

	skipped       int // victim's wave-2 paths refused while down
	requeued      int // files re-driven after rejoin
	parked        int // park events during the outage
	normalSkipped int // normal recall of a dead-site path: skip count

	failoverWant int // victim wave-1 files requested during the outage
	failoverOK   int // served from a replica
	killEvent    uint64

	drained    bool
	catchUp    simtime.Duration
	catchBound simtime.Duration

	objectsPerSite  map[string]int
	replicasPerSite map[string]int
	catalogMissing  int // seeded paths with no DR catalog entry
	catalogShort    int // entries with fewer than Copies-1 confirmed sites
	replicaHoles    int // cataloged replicas the holder cannot actually serve

	pending  int // replica tasks still unconfirmed after catch-up
	repBytes float64
	lagMean  float64
	events   int

	plantRun // the run's telemetry snapshot and flight dump
}

// drSeed creates n files under a fresh project owned by the given
// site (project names are probed until the federation hash routes
// there) and returns their stat infos.
func drSeed(fed *federation.Federation, site *federation.Site, wave, n int, size int64) []pfs.Info {
	var project string
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("w%d-%s-%02d", wave, site.Name, i)
		if fed.SiteFor("/"+p) == site {
			project = p
			break
		}
	}
	if project == "" {
		panic(fmt.Sprintf("dr: no wave-%d project hashes to %s", wave, site.Name))
	}
	root := "/" + project
	if err := site.Archive.MkdirAll(root); err != nil {
		panic(err)
	}
	infos := make([]pfs.Info, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/f%03d", root, i)
		if err := site.Archive.WriteFile(p, synthetic.NewUniform(uint64(wave*1000+i+1), size)); err != nil {
			panic(err)
		}
		info, err := site.Archive.Stat(p)
		if err != nil {
			panic(err)
		}
		infos = append(infos, info)
	}
	return infos
}

// drRun drives the whole drill on a fresh three-site federation:
// archive wave 1 everywhere and let replication drain, seed wave 2,
// kill the victim site, archive wave 2 (the victim's share is
// skipped), serve the victim's wave-1 data from replicas during the
// outage, rejoin, requeue the skipped migrations, and drain the
// catch-up backlog within the bound.
func drRun() drOutcome {
	const (
		n1, n2   = 10, 10
		fileSize = 200e6
		wanRate  = 100e6
	)
	names := []string{"east", "south", "west"}
	out := drOutcome{
		siteNames: names,
		n1:        n1, n2: n2,
		objectsPerSite:  make(map[string]int),
		replicasPerSite: make(map[string]int),
	}
	out.plantRun = runClock(func(clock *simtime.Clock) func() {
		// Each site is one small plant: 2 movers and a 4-drive library
		// with an 8-cartridge copy pool for the replicas it receives.
		opts := archive.DefaultOptions()
		opts.Cluster.Nodes = 2
		opts.TapeDrives, opts.Cartridges, opts.Robots = 4, 32, 1
		opts.CopyPoolCartridges = 8
		var plants []*archive.System
		for _, n := range names {
			opts.Site = n
			plants = append(plants, archive.New(clock, opts))
		}
		reg := faults.New(clock)
		fed, err := federation.New(clock, reg, plants...)
		if err != nil {
			panic(err)
		}
		sites := fed.Sites()
		// Full WAN triangle: every pair one hop apart while healthy, so a
		// single site kill never partitions the survivors.
		fed.AddWANLink("wan-east-south", wanRate, sites[0], sites[1])
		fed.AddWANLink("wan-south-west", wanRate, sites[1], sites[2])
		fed.AddWANLink("wan-west-east", wanRate, sites[2], sites[0])
		fed.InstallFaults()
		// A fast-burning WAN retry budget: items destined to the dead site
		// park within about half a virtual minute instead of the default
		// multi-minute budget, keeping the drill's timeline tight.
		rep, err := federation.NewReplicator(fed, federation.ReplicationPolicy{Copies: 3},
			faults.Backoff{Attempts: 3, Base: 5 * time.Second, Factor: 2, Max: 30 * time.Second})
		if err != nil {
			panic(err)
		}
		victim, portal := sites[1], sites[0]
		out.victim = victim.Name
		return func() {
			tel := telemetry.Of(clock)
			// The failover spans must survive the catch-up traffic that
			// follows them in the ring.
			tel.SetFlightCapacity(16384)

			// Wave 1: the steady-state campaign. Every site archives its
			// share and replication drains completely — the pre-disaster
			// recovery point.
			wave1 := make(map[string][]pfs.Info)
			var all1 []pfs.Info
			for _, s := range sites {
				infos := drSeed(fed, s, 1, n1, fileSize)
				wave1[s.Name] = infos
				all1 = append(all1, infos...)
			}
			if _, err := fed.Migrate(all1, hsm.MigrateOptions{Balanced: true}); err != nil {
				panic(fmt.Sprintf("dr wave-1 migrate: %v", err))
			}
			if !rep.DrainWithin(4 * time.Hour) {
				panic(fmt.Sprintf("dr: wave-1 replication never drained: %d pending", rep.Pending()))
			}

			// Wave 2 lands on disk everywhere — and then the disaster takes
			// the victim site out mid-campaign: its TSM server, mover nodes,
			// and both WAN trunks in one compound event.
			wave2 := make(map[string][]pfs.Info)
			var all2 []pfs.Info
			for _, s := range sites {
				infos := drSeed(fed, s, 2, n2, fileSize)
				wave2[s.Name] = infos
				all2 = append(all2, infos...)
			}
			reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
			out.killEvent, _ = tel.LastEventFor(faults.SiteComponent(victim.Name))

			// The campaign continues on the survivors. The victim's share is
			// skipped (and reported), not lost.
			mout, err := fed.Migrate(all2, hsm.MigrateOptions{Balanced: true})
			if err != nil && !errors.Is(err, federation.ErrSiteDown) {
				panic(fmt.Sprintf("dr wave-2 migrate: %v", err))
			}
			out.skipped = mout.SkippedCount()
			skippedPaths := mout.SkippedPaths()

			// Normal recall of a dead site's path skips; failover recall
			// serves every one of the victim's wave-1 files from the nearest
			// surviving replica over the WAN.
			rout, rerr := fed.Recall([]string{wave1[victim.Name][0].Path}, hsm.RecallOrdered)
			if !errors.Is(rerr, federation.ErrSiteDown) {
				panic(fmt.Sprintf("dr: normal recall of a dead site's path: err = %v, want ErrSiteDown", rerr))
			}
			out.normalSkipped = rout.SkippedCount()
			out.failoverWant = len(wave1[victim.Name])
			for _, info := range wave1[victim.Name] {
				r, err := rep.FailoverRecall(portal, info.Path)
				if err != nil {
					panic(fmt.Sprintf("dr: failover recall of %s: %v", info.Path, err))
				}
				if r.Bytes != info.Size {
					panic(fmt.Sprintf("dr: failover recall of %s returned %d bytes, want %d", info.Path, r.Bytes, info.Size))
				}
				out.failoverOK++
			}

			// The survivors' wave-2 replicas destined to the victim burn
			// their retry budget and park. Wait for the full backlog.
			ctrParked := tel.Counter("federation_replication_parked_total")
			wantParked := 2 * n2
			for i := 0; i < 720 && int(ctrParked.Value()) < wantParked; i++ {
				clock.Sleep(10 * time.Second)
			}
			out.parked = int(ctrParked.Value())

			// Rejoin: one repair event reverses the compound kill and kicks
			// the parked backlog. The operator requeues the skipped
			// migrations; catch-up must drain within the bound.
			reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
			catchStart := clock.Now()
			var reinfos []pfs.Info
			for _, p := range skippedPaths {
				info, err := victim.Archive.Stat(p)
				if err != nil {
					panic(fmt.Sprintf("dr: requeue stat %s: %v", p, err))
				}
				reinfos = append(reinfos, info)
			}
			if _, err := fed.Migrate(reinfos, hsm.MigrateOptions{Balanced: true}); err != nil {
				panic(fmt.Sprintf("dr requeue migrate: %v", err))
			}
			out.requeued = len(reinfos)
			out.catchBound = time.Hour
			out.drained = rep.DrainWithin(out.catchBound)
			out.catchUp = clock.Now() - catchStart

			// Account for every file: primary objects per site, replicas per
			// site, and a full catalog audit (entry present, Copies-1
			// confirmed sites, every confirmed holder able to serve).
			for _, s := range sites {
				out.objectsPerSite[s.Name] = s.TSM.NumObjects()
				out.replicasPerSite[s.Name] = s.TSM.NumReplicas()
			}
			audit := func(infos []pfs.Info) {
				for _, info := range infos {
					ent := rep.Catalog(info.Path)
					if ent == nil {
						out.catalogMissing++
						continue
					}
					if len(ent.Sites) < 2 {
						out.catalogShort++
					}
					for _, name := range ent.Sites {
						s, err := fed.SiteByName(name)
						if err != nil || !s.TSM.HasReplica(ent.HomeSite, ent.Object.ID) {
							out.replicaHoles++
						}
					}
				}
			}
			for _, s := range sites {
				audit(wave1[s.Name])
				audit(wave2[s.Name])
			}

			out.pending = rep.Pending()
			out.repBytes = tel.Counter("federation_replica_bytes_total").Value()
			if h := tel.Histogram("federation_replication_lag_seconds"); h.Count() > 0 {
				out.lagMean = h.Sum() / h.Count()
			}
			out.events = len(reg.Log())
			rep.Close()
		}
	})
	return out
}

// drStudy is E20: the multi-site disaster-recovery drill. Three sites
// replicate asynchronously over a WAN triangle (Copies=3); a compound
// site-kill takes one site out mid-campaign. The experiment asserts
// the DR contract: the dead site's share of the campaign is skipped
// and later requeued (never silently dropped), 100% of recalls for its
// data are served from surviving replicas routed over the WAN, the
// parked replication backlog drains within the catch-up bound after
// rejoin, no file is lost or double-replicated (idempotent exactly-
// once), and every failover span in the flight dump cites the
// site-kill fault event that forced the reroute.
//
// The drill is scripted: the seed does not move it.
func drStudy(int64) Report {
	out := drRun()

	failf := out.failf

	// Exactly-once accounting: every site archived its full share, and
	// holds exactly one replica of every object homed at the other two.
	perSite := out.n1 + out.n2
	files := perSite * len(out.siteNames)
	wantReplicas := 2 * perSite
	objects, replicas := 0, 0
	for _, name := range out.siteNames {
		objects += out.objectsPerSite[name]
		replicas += out.replicasPerSite[name]
		if out.objectsPerSite[name] != perSite {
			failf("dr: site %s holds %d tape objects, want %d (lost or duplicated primaries)",
				name, out.objectsPerSite[name], perSite)
		}
		if out.replicasPerSite[name] != wantReplicas {
			failf("dr: site %s holds %d replicas, want %d (lost or duplicated replicas)",
				name, out.replicasPerSite[name], wantReplicas)
		}
	}
	if out.catalogMissing != 0 || out.catalogShort != 0 || out.replicaHoles != 0 {
		failf("dr: catalog audit failed: %d paths uncataloged, %d under-replicated, %d unservable replicas",
			out.catalogMissing, out.catalogShort, out.replicaHoles)
	}
	if out.pending != 0 || !out.drained {
		failf("dr: catch-up never drained: %d pending after %s bound", out.pending, out.catchBound)
	}

	// The outage was survived, not papered over: the victim's share was
	// skipped and requeued, the survivors' backlog parked, and every
	// recall of the dead site's data was served from a replica.
	if out.skipped != out.n2 || out.requeued != out.skipped {
		failf("dr: skipped %d migrations, requeued %d; want %d skipped and all requeued",
			out.skipped, out.requeued, out.n2)
	}
	if out.normalSkipped != 1 {
		failf("dr: normal recall of a dead site's path skipped %d files, want 1", out.normalSkipped)
	}
	if out.failoverOK != out.failoverWant || out.failoverWant == 0 {
		failf("dr: %d of %d failover recalls served from replicas", out.failoverOK, out.failoverWant)
	}
	if out.parked < 2*out.n2 {
		failf("dr: only %d replica tasks parked during the outage, want >= %d", out.parked, 2*out.n2)
	}

	// Causality: every failover span ended OK and cites the site-kill
	// fault event that forced the reroute.
	if out.killEvent == 0 {
		failf("dr: no site-kill event on the books")
	}
	spans := 0
	for _, sp := range out.flight.Spans {
		if sp.Name != "federation.failover-recall" {
			continue
		}
		spans++
		if sp.Status != telemetry.StatusOK {
			failf("dr: failover span %d status = %s, want OK", sp.ID, sp.Status)
		}
		if sp.CauseEvent != out.killEvent {
			failf("dr: failover span %d cites event %d, want site-kill event %d", sp.ID, sp.CauseEvent, out.killEvent)
		}
	}
	if spans != out.failoverWant {
		failf("dr: flight dump holds %d failover spans, want %d", spans, out.failoverWant)
	}

	t := stats.NewTable("metric", "value")
	t.Row("sites", len(out.siteNames))
	t.Row("victim site", out.victim)
	t.Row("files archived", files)
	t.Row("tape objects (primaries)", objects)
	t.Row("replicas landed", replicas)
	t.Row("replica GB over WAN", fmt.Sprintf("%.1f", out.repBytes/1e9))
	t.Row("migrations skipped in outage", out.skipped)
	t.Row("migrations requeued on rejoin", out.requeued)
	t.Row("replica tasks parked", out.parked)
	t.Row("failover recalls served", fmt.Sprintf("%d/%d", out.failoverOK, out.failoverWant))
	t.Row("catch-up drain", fmt.Sprintf("%.1f min (bound %.0f min)", out.catchUp.Seconds()/60, out.catchBound.Seconds()/60))
	t.Row("mean replication lag", fmt.Sprintf("%.1f s", out.lagMean))
	t.Row("fault events", out.events)

	r := Report{
		Name: "dr",
		Title: "Disaster-recovery drill: whole-site kill mid-campaign, " +
			"failover recall from replicas, catch-up on rejoin",
		Body: t.String(),
		Notes: []string{
			"the site-kill is one compound fault event: TSM server, mover nodes, and both WAN trunks fail together",
			"100% of recalls for the dead site's data are served from the nearest surviving replica over the WAN",
			"the dead site's campaign share is skipped and requeued on rejoin — no file is lost or archived twice",
			"every failover span in the flight dump cites the site-kill fault event that forced the reroute",
		},
	}
	r.metric("sites", float64(len(out.siteNames)))
	r.metric("files", float64(files))
	r.metric("tape_objects", float64(objects))
	r.metric("replicas", float64(replicas))
	r.metric("replica_gb", out.repBytes/1e9)
	r.metric("lost_files", float64(out.catalogMissing))
	r.metric("duplicate_replicas", float64(replicas-len(out.siteNames)*wantReplicas))
	r.metric("skipped", float64(out.skipped))
	r.metric("requeued", float64(out.requeued))
	r.metric("parked", float64(out.parked))
	r.metric("failover_recalls", float64(out.failoverOK))
	r.metric("failover_requests", float64(out.failoverWant))
	r.metric("failover_served", float64(out.failoverOK)/float64(out.failoverWant))
	r.metric("catchup_seconds", out.catchUp.Seconds())
	r.metric("catchup_bound_seconds", out.catchBound.Seconds())
	r.metric("drained", b2f(out.drained))
	r.metric("lag_mean_seconds", out.lagMean)
	r.metric("fault_events", float64(out.events))
	r.Telemetry = out.snap
	r.Flight = out.flight
	return r
}
