package federation

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

// count reads a lifetime counter from the env's registry; each env
// runs one replicator on its clock, so the series is that replicator's.
func (e *siteEnv) count(name string) int {
	return int(telemetry.Of(e.clock).Counter(name).Value())
}

func TestReplicationFansOutToOtherSites(t *testing.T) {
	e := newSiteEnv(t, 3)
	rep, err := NewReplicator(e.fed, ReplicationPolicy{Copies: 3}, faults.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	home := e.sites[0]
	e.run(t, func() {
		infos := e.seed(t, home, 4, 50e6)
		if _, err := e.fed.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if !rep.DrainWithin(2 * time.Hour) {
			t.Fatalf("backlog never drained: %d pending", rep.Pending())
		}
		for _, other := range e.sites[1:] {
			srv := other.TSM
			if srv.NumReplicas() != 4 {
				t.Errorf("site %s holds %d replicas, want 4", other.Name, srv.NumReplicas())
			}
			for _, info := range infos {
				ent := rep.Catalog(info.Path)
				if ent == nil {
					t.Fatalf("no catalog entry for %s", info.Path)
				}
				if !srv.HasReplica(ent.HomeSite, ent.Object.ID) {
					t.Errorf("site %s missing replica of %s", other.Name, info.Path)
				}
			}
		}
		if replicated, pending := e.count("federation_replicas_total"), rep.Pending(); replicated != 8 || pending != 0 {
			t.Errorf("%d replicated, %d pending, want 8 replicated, 0 pending", replicated, pending)
		}
		if telemetry.Of(e.clock).Histogram("federation_replication_lag_seconds").Count() != 8 {
			t.Error("replication lag histogram not fed")
		}
		rep.Close()
	})
}

func TestReplicationParksDuringOutageAndCatchesUp(t *testing.T) {
	e := newSiteEnv(t, 3)
	// A fast-burning retry budget so the park happens within the test's
	// virtual hour rather than after the default minutes of backoff.
	retry := faults.Backoff{Attempts: 2, Base: time.Second, Factor: 2, Max: 5 * time.Second}
	rep, err := NewReplicator(e.fed, ReplicationPolicy{Copies: 3}, retry)
	if err != nil {
		t.Fatal(err)
	}
	home, victim := e.sites[0], e.sites[2]
	e.run(t, func() {
		// Kill a destination site BEFORE the campaign: its share of the
		// replication work must park, not vanish and not block the rest.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
		infos := e.seed(t, home, 3, 50e6)
		if _, err := e.fed.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if rep.DrainWithin(time.Hour) {
			t.Fatal("drain reported complete with a destination site dead")
		}
		if e.sites[1].TSM.NumReplicas() != 3 {
			t.Errorf("healthy site holds %d replicas, want 3", e.sites[1].TSM.NumReplicas())
		}
		if e.count("federation_replication_parked_total") == 0 {
			t.Error("no park events during the outage")
		}
		if n := rep.Pending(); n != 3 {
			t.Errorf("pending = %d, want 3 (the dead site's share)", n)
		}
		if g := telemetry.Of(e.clock).Snapshot().Value("federation_replication_pending"); g != 3 {
			t.Errorf("pending gauge = %v, want 3", g)
		}

		// Rejoin: the repair event kicks the parked backlog and the
		// catch-up drain completes.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
		if !rep.DrainWithin(2 * time.Hour) {
			t.Fatalf("catch-up never drained: %d pending", rep.Pending())
		}
		if got := victim.TSM.NumReplicas(); got != 3 {
			t.Errorf("rejoined site holds %d replicas, want 3 (exactly once)", got)
		}
		rep.Close()
	})
}

func TestFailoverRecallServesFromNearestReplica(t *testing.T) {
	e := newSiteEnv(t, 3)
	rep, err := NewReplicator(e.fed, ReplicationPolicy{Copies: 2}, faults.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	home, portal := e.sites[0], e.sites[2]
	e.run(t, func() {
		infos := e.seed(t, home, 2, 50e6)
		if _, err := e.fed.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if !rep.DrainWithin(2 * time.Hour) {
			t.Fatal("replication never drained")
		}
		// Disaster: the home site dies. Normal recall skips its paths;
		// failover recall serves them from the replica site.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(home.Name), Kind: faults.KindFail})
		out, err := e.fed.Recall([]string{infos[0].Path}, hsm.RecallOrdered)
		if !errors.Is(err, ErrSiteDown) || out.SkippedCount() != 1 {
			t.Fatalf("normal recall: err=%v skipped=%d, want ErrSiteDown/1", err, out.SkippedCount())
		}
		for _, info := range infos {
			r, err := rep.FailoverRecall(portal, info.Path)
			if err != nil {
				t.Fatalf("failover recall of %s: %v", info.Path, err)
			}
			if r.Bytes != info.Size {
				t.Errorf("replica bytes = %d, want %d", r.Bytes, info.Size)
			}
		}
		if n := e.count("federation_failover_recalls_total"); n != 2 {
			t.Errorf("FailoverRecalls = %d, want 2", n)
		}
		// Every failover span ended OK and cites the site-kill event.
		tel := telemetry.Of(e.clock)
		killEvent, ok := tel.LastEventFor(faults.SiteComponent(home.Name))
		if !ok {
			t.Fatal("no site-kill event on the books")
		}
		dump := tel.FlightDump()
		found := 0
		for _, sp := range dump.Spans {
			if sp.Name != "federation.failover-recall" {
				continue
			}
			found++
			if sp.Status != telemetry.StatusOK {
				t.Errorf("failover span status = %s", sp.Status)
			}
			if sp.CauseEvent != killEvent {
				t.Errorf("failover span cause = %d, want site-kill event %d", sp.CauseEvent, killEvent)
			}
		}
		if found != 2 {
			t.Errorf("found %d failover spans, want 2", found)
		}

		// A path that was never cataloged is a typed error.
		if _, err := rep.FailoverRecall(portal, "/no/such/path"); !errors.Is(err, ErrNotCataloged) {
			t.Errorf("uncataloged path: err = %v, want ErrNotCataloged", err)
		}
		rep.Close()
	})
}

func TestReplicatorRequiresMultiSiteAndPolicy(t *testing.T) {
	se := newSiteEnv(t, 2)
	if _, err := NewReplicator(se.fed, ReplicationPolicy{Copies: 1}, faults.Backoff{}); err == nil {
		t.Error("replicator accepted Copies < 2")
	}
}

// TestParkKickCycleIsBounded: a destination that "repairs" but never
// actually serves (the repair event is immediately followed by another
// failure) must not cycle park→kick→park forever. After maxParkKicks
// round trips the item retires — visible on the
// federation_parked_permanent gauge — and later kicks stop re-offering
// it.
func TestParkKickCycleIsBounded(t *testing.T) {
	e := newSiteEnv(t, 3)
	retry := faults.Backoff{Attempts: 1, Base: time.Second}
	rep, err := NewReplicator(e.fed, ReplicationPolicy{Copies: 3}, retry)
	if err != nil {
		t.Fatal(err)
	}
	home, victim := e.sites[0], e.sites[2]
	flap := func() {
		// A lying repair: the kick re-offers the backlog, but the site is
		// down again before any retry can land.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
		e.clock.Sleep(time.Minute)
	}
	e.run(t, func() {
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindFail})
		infos := e.seed(t, home, 2, 50e6)
		if _, err := e.fed.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		rep.DrainWithin(time.Hour) // healthy site drains; victim's share parks
		if e.count("federation_replication_parked_total") == 0 {
			t.Fatal("no park events during the outage")
		}
		for i := 0; i < maxParkKicks+2; i++ {
			flap()
		}
		if got := telemetry.Of(e.clock).Snapshot().Value("federation_parked_permanent"); got != 2 {
			t.Fatalf("federation_parked_permanent = %v, want 2 (both of the victim's items)", got)
		}
		// A real repair now kicks nothing: the items are retired, not in
		// the park backlog, so the healed site stays empty and the work
		// remains loudly pending.
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(victim.Name), Kind: faults.KindRepair})
		if rep.DrainWithin(30 * time.Minute) {
			t.Fatal("drain completed; permanently parked items must stay pending")
		}
		if got := victim.TSM.NumReplicas(); got != 0 {
			t.Errorf("retired items landed %d replicas on the healed site", got)
		}
		rep.Close()
	})
}

// TestFailoverRecallServesNewestObject migrates a path, recalls it,
// rewrites it and migrates it again, then kills the home site: the DR
// catalog must name the second object, record its replica site once,
// and serve the rewritten bytes — never the first object's stale copy.
func TestFailoverRecallServesNewestObject(t *testing.T) {
	e := newSiteEnv(t, 3)
	rep, err := NewReplicator(e.fed, ReplicationPolicy{Copies: 2}, faults.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	home, portal := e.sites[0], e.sites[2]
	e.run(t, func() {
		info := e.seed(t, home, 1, 50e6)[0]
		if _, err := e.fed.Migrate([]pfs.Info{info}, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		first := rep.Catalog(info.Path).Object.ID
		if _, err := e.fed.Recall([]string{info.Path}, hsm.RecallOrdered); err != nil {
			t.Fatal(err)
		}
		rewritten := synthetic.NewUniform(99, 80e6)
		if err := home.Archive.WriteFile(info.Path, rewritten); err != nil {
			t.Fatal(err)
		}
		info2, _ := home.Archive.Stat(info.Path)
		if _, err := e.fed.Migrate([]pfs.Info{info2}, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if !rep.DrainWithin(2 * time.Hour) {
			t.Fatal("replication never drained")
		}
		ent := rep.Catalog(info.Path)
		if ent.Object.ID == first {
			t.Fatalf("catalog still names object %d after the path was migrated again", first)
		}
		if len(ent.Sites) != 1 {
			t.Errorf("catalog sites = %v, want the one replica site once", ent.Sites)
		}
		e.reg.Apply(faults.Event{Component: faults.SiteComponent(home.Name), Kind: faults.KindFail})
		r, err := rep.FailoverRecall(portal, info.Path)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != ent.Object.ID || r.Bytes != rewritten.Len() {
			t.Errorf("failover served object %d (%d bytes), want object %d (%d bytes)",
				r.ID, r.Bytes, ent.Object.ID, rewritten.Len())
		}
		rep.Close()
	})
}
