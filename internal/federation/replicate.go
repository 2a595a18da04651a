// Async cross-site replication and disaster-recovery failover. Every
// object a site's TSM server stores is offered to the replicator
// (tsm.Server.OnChange, the feed the site's shadow DB follows too),
// which fans it out to N-1 other sites under a placement policy. Each
// destination site has its own queue and worker actor: the worker
// resolves a WAN route around dead links, charges the transfer against
// the WAN fabric, and lands the bytes in the destination site's copy
// pool (tsm.StoreReplica).
// Transient trouble retries under the shared bounded-exponential
// backoff; when the budget is exhausted — a partition, a dead site —
// the item PARKS in a per-site backlog and waits for the repair event
// to kick it (catch-up drain). StoreReplica's (site, ID) idempotency
// makes the whole pipeline exactly-once no matter how often an item
// re-offers.
//
// This is the T0/T1-style replication model of PAPERS.md: backlog and
// replication-lag are first-class telemetry (gauges + an RPO
// histogram), because the interesting DR question is not "does it
// copy" but "how far behind is the copy when the disaster hits".

package federation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/tsm"
)

// Replication errors.
var (
	// errNoReplica means no surviving site holds a replica for the
	// requested path — the data-loss case E20 asserts never happens.
	errNoReplica = errors.New("federation: no surviving replica")
	// errNotCataloged means the path never passed through the
	// replicator, so it has no federation-wide catalog entry.
	errNotCataloged = errors.New("federation: path not cataloged")
)

// ReplicationPolicy says how many copies of each object the federation
// maintains.
type ReplicationPolicy struct {
	// Copies is the TOTAL copy count including the primary; 2 means
	// one replica on one other site. Values < 2 disable replication.
	Copies int
}

// maxParkKicks bounds how many times a parked item may be kicked back
// into its queue by repair events. An item that exhausts its backoff
// budget that many times is permanently parked — visible on the
// federation_parked_permanent gauge — instead of cycling
// park→kick→park forever against a destination that never truly heals.
const maxParkKicks = 8

// repItem is one pending replica: obj from its home site to dest.
type repItem struct {
	home, dest *Site
	obj        tsm.Object
	storedAt   simtime.Duration // when the primary landed; RPO base
	kicks      int              // park→kick round trips consumed so far
}

// CatalogEntry is the replicator's federation-wide record of one
// object: where the primary lives and which sites hold confirmed
// replicas. It doubles as the DR catalog — the surviving metadata a
// failover recall consults when the home site (and its shadow DB) is
// gone.
type CatalogEntry struct {
	HomeSite string
	Object   tsm.Object
	Sites    []string // sites with a confirmed replica, in landing order
}

// Replicator is the federation's async replication engine: one queue
// and one worker actor per destination site, fed by every site TSM
// server's OnChange hook.
type Replicator struct {
	clock *simtime.Clock
	fed   *Federation
	pol   ReplicationPolicy
	retry faults.Backoff

	sch      *sched.Scheduler
	defense  *faults.Defense           // shared retry budgets + breakers (inert unless enabled)
	queues   map[string]*simtime.Queue // dest site name -> mailbox
	parked   map[string][]repItem      // dest site name -> partition backlog
	permPark int                       // items retired after maxParkKicks cycles
	catalog  map[string]*CatalogEntry  // object path -> entry
	closed   bool
	pending  int // offered - replicated: queued, parked, or in flight

	tel        *telemetry.Registry
	hLag       *telemetry.Histogram
	ctrRep     *telemetry.Counter
	ctrBytes   *telemetry.Counter
	ctrParked  *telemetry.Counter
	ctrRetries *telemetry.Counter
	ctrFail    *telemetry.Counter
}

// NewReplicator wires a replicator into a federation: every object a
// site's TSM server stores flows to Copies-1 other sites from now on.
// retry is the per-item WAN backoff budget (zero value =
// faults.DefaultBackoff). Workers spawn immediately, one per site, in
// site order.
func NewReplicator(fed *Federation, pol ReplicationPolicy, retry faults.Backoff) (*Replicator, error) {
	if pol.Copies < 2 {
		return nil, fmt.Errorf("federation: replication policy needs Copies >= 2, got %d", pol.Copies)
	}
	if retry == (faults.Backoff{}) {
		retry = faults.DefaultBackoff()
	}
	r := &Replicator{
		clock:   fed.clock,
		fed:     fed,
		pol:     pol,
		retry:   retry,
		queues:  make(map[string]*simtime.Queue),
		parked:  make(map[string][]repItem),
		catalog: make(map[string]*CatalogEntry),
	}
	r.sch = sched.Of(fed.clock)
	r.defense = faults.DefenseOf(fed.clock)
	r.tel = telemetry.Of(fed.clock)
	r.hLag = r.tel.Histogram("federation_replication_lag_seconds")
	r.ctrRep = r.tel.Counter("federation_replicas_total")
	r.ctrBytes = r.tel.Counter("federation_replica_bytes_total")
	r.ctrParked = r.tel.Counter("federation_replication_parked_total")
	r.ctrRetries = r.tel.Counter("federation_replication_retries_total")
	r.ctrFail = r.tel.Counter("federation_failover_recalls_total")
	r.tel.GaugeFunc("federation_replication_pending", func() float64 {
		return float64(r.pending)
	})
	for _, site := range fed.sites {
		site := site
		q := simtime.NewQueue(fed.clock)
		r.queues[site.Name] = q
		r.tel.GaugeFunc("federation_replication_backlog", func() float64 {
			return float64(q.Len() + len(r.parked[site.Name]))
		}, "site", site.Name)
		fed.clock.Go(func() { r.worker(site, q) })
		site.TSM.OnChange(func(obj tsm.Object) { r.offer(site, obj) })
	}
	fed.rep = r
	return r, nil
}

// Pending reports replica tasks not yet confirmed (queued, parked, or
// in flight).
func (r *Replicator) Pending() int { return r.pending }

// Catalog returns the entry for a path (nil if never offered).
func (r *Replicator) Catalog(path string) *CatalogEntry { return r.catalog[path] }

// Close shuts the per-site workers down (in site order) so a run can
// end without parking actors forever — clock.Run treats an eternally
// blocked Pop as deadlock. Further stores are no longer replicated;
// parked items stay parked.
func (r *Replicator) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, s := range r.fed.sites {
		r.queues[s.Name].Close()
	}
}

// offer records a stored object in the DR catalog and enqueues one
// replica task per placement. A path migrated again gets a fresh entry
// for its new object, so the catalog always names the newest copy. A
// delete enqueues nothing, nor does a move: it keeps its object's store
// instant, so an object no newer than the one cataloged for its path
// is that object moving (its entry follows it) or an older one the
// path no longer names. Runs inside the committing actor: enqueue only.
func (r *Replicator) offer(home *Site, obj tsm.Object) {
	if r.closed || obj.Deleted {
		return
	}
	if ent := r.catalog[obj.Path]; ent != nil && obj.Stored <= ent.Object.Stored {
		if ent.HomeSite == home.Name && ent.Object.ID == obj.ID {
			ent.Object = obj
		}
		return
	}
	r.catalog[obj.Path] = &CatalogEntry{HomeSite: home.Name, Object: obj}
	for _, dest := range r.placements(home) {
		r.pending++
		r.queues[dest.Name].Push(repItem{home: home, dest: dest, obj: obj, storedAt: r.clock.Now()})
	}
}

// placements picks the Copies-1 destination sites for a home site,
// nearest-first by healthy-topology hop count, ties by name. The home
// site is never a replica target. Deterministic — the failover path
// re-derives it.
func (r *Replicator) placements(home *Site) []*Site {
	var cands []*Site
	for _, s := range r.fed.sites {
		if s != home {
			cands = append(cands, s)
		}
	}
	cands = r.fed.nearest(home, cands, false)
	n := r.pol.Copies - 1
	if n > len(cands) {
		n = len(cands)
	}
	return cands[:n]
}

// worker drains one destination site's queue forever.
func (r *Replicator) worker(dest *Site, q *simtime.Queue) {
	for {
		v, ok := q.Pop()
		if !ok {
			return
		}
		r.replicate(v.(repItem))
	}
}

// errUnreachable marks a destination or source that cannot currently
// serve: down site, partitioned WAN. Retryable — the flap may clear
// within the backoff budget.
var errUnreachable = errors.New("federation: site unreachable")

func repRetryable(err error) bool {
	return errors.Is(err, errUnreachable) ||
		errors.Is(err, tsm.ErrServerDown) ||
		errors.Is(err, errNoRoute)
}

// replicate drives one item to its destination: pick a live source
// (the home site, or any site already holding a confirmed replica —
// replica-to-replica copy is what lets catch-up proceed while the
// origin is still dark), route around dead WAN links, charge the
// transfer, land the bytes. Budget exhausted -> park until a repair
// kicks the backlog.
func (r *Replicator) replicate(item repItem) {
	// One admission per replica transfer (retries ride the same grant:
	// the backoff budget is one unit of work from the scheduler's view).
	// Replication is background durability work that must not crowd out
	// interactive recalls, but it is not scavenger work either — RPO
	// depends on it: the "federation" tenant at Batch class.
	grant := r.sch.Station(sched.StationReplicate).Admit(sched.Item{
		QoS:  sched.QoS{Tenant: "federation", Class: sched.Batch},
		Kind: "federation.replicate", Units: item.obj.Bytes,
	})
	defer grant.Done()
	sp := r.tel.StartSpan("federation.replicate",
		"path", item.obj.Path, "home", item.home.Name, "to", item.dest.Name)
	err := r.defense.Do("wan:"+item.dest.Name, r.retry, func(attempt int) error {
		if attempt > 1 {
			r.ctrRetries.Inc()
		}
		if item.dest.down() {
			return fmt.Errorf("%w: %s is down", errUnreachable, item.dest.Name)
		}
		src := r.pickSource(item)
		if src == nil {
			return fmt.Errorf("%w: no live source for %s", errUnreachable, item.obj.Path)
		}
		route, err := r.fed.wanRoute(src, item.dest)
		if err != nil {
			return err
		}
		if !route.Empty() {
			fl := route.Fabric().Start(route, item.obj.Bytes)
			fl.Wait()
		}
		return item.dest.TSM.StoreReplica("rep:"+src.Name, item.home.Name, item.obj, sp)
	}, repRetryable)
	if err != nil {
		cause, _ := r.tel.LastEventFor(faults.SiteComponent(item.dest.Name))
		if item.kicks >= maxParkKicks {
			// The item has already cycled park→kick maxParkKicks times and
			// still cannot land: retire it permanently instead of
			// spinning against a destination that never heals. It stays
			// on the books (Pending, the gauge) — work is retired
			// loudly, never silently dropped.
			r.retirePermanently()
			sp.Abort("parked permanently after "+strconv.Itoa(item.kicks)+" kicks: "+err.Error(), cause)
			return
		}
		r.parked[item.dest.Name] = append(r.parked[item.dest.Name], item)
		r.ctrParked.Inc()
		sp.Abort("parked: "+err.Error(), cause)
		return
	}
	r.pending--
	r.ctrRep.Inc()
	r.ctrBytes.Add(float64(item.obj.Bytes))
	lag := (r.clock.Now() - item.storedAt).Seconds()
	r.hLag.Observe(lag)
	// A replica of a path's older object lands but is not recorded: the
	// catalog names the newest object only.
	if ent := r.catalog[item.obj.Path]; ent.Object.ID == item.obj.ID {
		ent.Sites = append(ent.Sites, item.dest.Name)
	}
	sp.SetAttr("lag", fmt.Sprintf("%.1fs", lag))
	sp.End()
}

// pickSource returns a live site to read the object from: home first,
// else the first live holder of a confirmed replica, in landing order.
func (r *Replicator) pickSource(item repItem) *Site {
	if !item.home.down() {
		return item.home
	}
	if ent := r.catalog[item.obj.Path]; ent.Object.ID == item.obj.ID {
		if hs := r.holders(ent); len(hs) > 0 {
			return hs[0]
		}
	}
	return nil
}

// holders lists the live sites that hold a confirmed replica of the
// entry's object, in landing order.
func (r *Replicator) holders(ent *CatalogEntry) []*Site {
	var out []*Site
	for _, name := range ent.Sites {
		s, err := r.fed.SiteByName(name)
		if err == nil && !s.down() && s.TSM.HasReplica(ent.HomeSite, ent.Object.ID) {
			out = append(out, s)
		}
	}
	return out
}

// retirePermanently counts one retired item and registers the
// federation_parked_permanent gauge on first use (lazy so runs that
// never retire anything keep their telemetry unchanged). A retired
// item still counts as Pending: the copy genuinely does not exist.
func (r *Replicator) retirePermanently() {
	if r.permPark == 0 {
		r.tel.GaugeFunc("federation_parked_permanent", func() float64 {
			return float64(r.permPark)
		})
	}
	r.permPark++
}

// kick re-offers every parked item to its queue — called by the fault
// dispatcher on site rejoin and WAN-link repair. Sites drain in name
// order (determinism); idempotent stores make double kicks harmless.
// Each kick charges the item's park→kick budget; see maxParkKicks.
func (r *Replicator) kick() {
	if r.closed {
		return
	}
	names := make([]string, 0, len(r.parked))
	for name := range r.parked {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		items := r.parked[name]
		if len(items) == 0 {
			continue
		}
		delete(r.parked, name)
		for _, it := range items {
			it.kicks++
			r.queues[name].Push(it)
		}
	}
}

// DrainWithin runs the clock-facing wait loop for catch-up: polls
// until no replica task is pending or the bound elapses. Returns
// whether the backlog fully drained — the E20 assertion that a
// rejoined site catches up within its recovery-point objective.
func (r *Replicator) DrainWithin(bound simtime.Duration) bool {
	deadline := r.clock.Now() + bound
	for r.Pending() > 0 && r.clock.Now() < deadline {
		r.clock.Sleep(10 * time.Second)
	}
	return r.Pending() == 0
}

// FailoverRecall serves one path to a requester at site `to` from the
// nearest surviving replica — the DR read path when the home site is
// dark. The span it emits ends OK but cites the fault event that
// forced the reroute (the site kill, when one is on the books), which
// is how a flight recording distinguishes "rerouted around a disaster"
// from an ordinary remote read.
func (r *Replicator) FailoverRecall(to *Site, path string) (tsm.Replica, error) {
	ent := r.catalog[path]
	if ent == nil {
		return tsm.Replica{}, fmt.Errorf("%w: %s", errNotCataloged, path)
	}
	// Candidate replica sites, nearest to the requester first on the
	// live WAN topology.
	cands := r.fed.nearest(to, r.holders(ent), true)
	if len(cands) == 0 {
		return tsm.Replica{}, fmt.Errorf("%w: %s (home %s)", errNoReplica, path, ent.HomeSite)
	}
	var lastErr error
	for _, src := range cands {
		sp := r.tel.StartSpan("federation.failover-recall",
			"path", path, "home", ent.HomeSite, "from", src.Name, "to", to.Name)
		if home, err := r.fed.SiteByName(ent.HomeSite); err == nil && home.down() {
			if id, ok := r.tel.LastEventFor(faults.SiteComponent(ent.HomeSite)); ok {
				sp.SetCause(id)
			}
		}
		route, err := r.fed.wanRoute(src, to)
		if err != nil {
			sp.Abort(err.Error(), 0)
			lastErr = err
			continue
		}
		rep, err := src.TSM.ReadReplica("dr:"+to.Name, ent.HomeSite, ent.Object.ID, route, sp)
		if err != nil {
			sp.Abort(err.Error(), 0)
			lastErr = err
			continue
		}
		sp.End()
		r.ctrFail.Inc()
		return rep, nil
	}
	return tsm.Replica{}, fmt.Errorf("federation: failover recall of %s failed: %w", path, lastErr)
}
