// Package sched is the archive's unified admission and scheduling
// layer: one per-clock scheduler (sched.Of, mirroring fabric.Of and
// telemetry.Of) that owns admission for every demand source in the
// stack — pftool copy/compare jobs, HSM migration and recall batches,
// TSM drive sessions, scrubber and reclamation passes, and federation
// replication. Before this layer each subsystem enqueued privately;
// now every one submits a typed work Item tagged with a tenant and a
// QoS class and blocks at a named Station until the scheduler grants
// admission, the shape TALICS³ simulates for a tape library serving
// cloud tenants with request mixes and service objectives.
//
// Policy, per station:
//
//   - strict priority across classes: interactive > batch > scavenger,
//     bounded by an anti-starvation share — while scavenger work is
//     backlogged, every higher-class dispatch accrues scavenger credit
//     and at ≥1 credit the next grant must come from the scavenger
//     lane, so background work keeps a guaranteed minimum share;
//   - start-time fair queueing across tenants within a class: each
//     tenant queue carries a virtual start tag advanced by the item's
//     units on dispatch, the minimum tag wins (ties broken by tenant
//     name for determinism), so backlogged tenants get equal long-run
//     shares and an idle tenant's tag catches up to lane virtual time
//     instead of hoarding credit.
//
// The scheduler arbitrates *admission order only* and then dispatches
// into the existing executors; data movement still charges the
// fabric's max-min fair-share underneath. A station with no
// configured limit is pass-through: grants are immediate, no virtual
// time passes, no events are scheduled — which is exactly why the
// single-tenant default path stays byte-identical to the
// pre-scheduler behavior.
//
// A deadline (QoS.Deadline) bounds one admission: a recall whose
// caller stops waiting is refused or cancelled at the station. Only
// tsm.RecallRequest carries one in from a caller; pftool, hsm, the
// scrubber and tsm stores admit without one.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Admission-refusal errors, surfaced through Grant.Err. Work is never
// silently dropped: every refusal increments deadline_exceeded_total
// or sched_shed_total alongside the error.
var (
	// ErrDeadlineExceeded means the item's virtual-time deadline passed
	// before the scheduler could grant it a slot — the work is doomed
	// (nobody is waiting anymore) so admitting it would only hold a
	// drive that live work needs.
	ErrDeadlineExceeded = errors.New("sched: deadline exceeded")
	// ErrShed means the brownout watermark rejected the item at
	// admission: its class's queue was already waiting longer than the
	// configured watermark, so adding more of that class would only
	// deepen the overload.
	ErrShed = errors.New("sched: shed by overload watermark")
)

// slot is the clock slot Of resolves; with one clock per island the
// scheduler is automatically island-local.
var slot = simtime.NewSlot()

func newForClock(clock *simtime.Clock) interface{} { return newScheduler(clock) }

// Of returns the scheduler shared by every component on the clock,
// creating it on first use. Like fabric.Of it must NOT be called from
// inside another component's SlotOf constructor; resolve lazily.
func Of(clock *simtime.Clock) *Scheduler {
	return clock.SlotOf(slot, newForClock).(*Scheduler)
}

// Class is a work item's QoS class.
type Class int

// QoS classes, in strict dispatch priority order. The zero value is
// "unset" so each admission point can apply its own default (recalls
// default interactive, migrations batch, scrubbing scavenger).
const (
	classUnset  Class = iota
	Interactive       // a user is waiting on the result
	Batch             // throughput work: migrations, campaign copies
	Scavenger         // background upkeep: scrub, reclaim, replication
)

// classOrder is the strict dispatch priority.
var classOrder = [...]Class{Interactive, Batch, Scavenger}

func (c Class) String() string {
	switch c {
	case classUnset:
		return "unset"
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Scavenger:
		return "scavenger"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// DefaultTenant labels work submitted without a tenant tag — the
// single-tenant default path of E1–E19.
const DefaultTenant = "default"

// QoS tags a work item with who it is for and how urgent it is.
type QoS struct {
	Tenant string
	Class  Class
	// Deadline is the absolute virtual time past which the work is no
	// longer worth doing (0 = none): an expired item is refused at
	// Admit (or cancelled in queue when its deadline passes before a
	// slot frees) instead of holding a drive for a caller that already
	// gave up. Of the request types only tsm.RecallRequest carries one
	// (E21's and E23's recalls); every other admission in the stack
	// passes a zero deadline.
	Deadline simtime.Duration
}

// Or fills unset fields: an empty tenant becomes DefaultTenant, an
// unset class becomes the admission point's default.
func (q QoS) Or(class Class) QoS {
	if q.Tenant == "" {
		q.Tenant = DefaultTenant
	}
	if q.Class == classUnset {
		q.Class = class
	}
	return q
}

// Station names: one per admission point in the stack. The name is
// the unit of capacity configuration (SetLimit) and shows up as the
// "station" label on the scheduler's telemetry.
const (
	StationPftoolCopy = "pftool.copy"          // worker copy/compare jobs
	StationPftoolTape = "pftool.tape"          // tape-ordered restore jobs
	StationMigrate    = "hsm.migrate"          // per-mover migration streams
	StationRecall     = "hsm.recall"           // per-mover recall sessions
	StationSession    = "tsm.session"          // TSM drive sessions (store/recall)
	StationScrub      = "tsm.scrub"            // scrubber volume passes
	StationReclaim    = "tsm.reclaim"          // reclamation volume passes
	StationReplicate  = "federation.replicate" // WAN replication tasks
)

// Item is one typed unit of archive work submitted for admission.
type Item struct {
	QoS
	Kind     string // e.g. "hsm.recall"; nothing reads it (bench/probes.go sets it)
	Units    int64  // cost in bytes (WFQ advance); min 1
	Expedite bool   // recall lane: runs before non-expedite work of the same tenant
}

// Grant is an admitted item; Done releases its slot. Check Err first:
// a refused item (deadline passed, brownout shed) carries no slot.
type Grant struct {
	st   *Station
	item Item
	err  error
	done bool
}

// Err reports why admission was refused: ErrDeadlineExceeded if the
// deadline passed before a slot was granted, ErrShed if the brownout
// watermark rejected the item. Nil means the grant is live and Done
// must be called.
func (g *Grant) Err() error { return g.err }

// Done releases the grant's dispatch slot, letting the station admit
// the next queued item. Calling Done twice, or on a refused grant, is
// a no-op.
func (g *Grant) Done() {
	if g == nil || g.done || g.err != nil {
		return
	}
	g.done = true
	g.st.inFlight--
	g.st.s.metrics().completed[g.item.Class].Inc()
	if g.st.slots > 0 {
		g.st.pump()
	}
}

// TenantStat is one (tenant, class) admission record.
type TenantStat struct {
	Tenant  string
	Class   Class
	Items   int64
	WaitSum simtime.Duration
}

// Scheduler is the per-clock admission layer.
type Scheduler struct {
	clock    *simtime.Clock
	stations map[string]*Station

	scavShare   float64          // anti-starvation share for scavenger work
	starveAfter simtime.Duration // queue wait counted as starvation (0 = off)
	slo         [4]simtime.Duration
	shedMark    [4]simtime.Duration // brownout watermark per class (0 = off)

	acct map[acctKey]*TenantStat

	// Contention ledger: dispatches decided while scavenger work was
	// backlogged — the denominator of the observed scavenger share.
	contScav, contTotal int64

	m *schedMetrics // lazy: telemetry.Of is illegal inside SlotOf
}

type acctKey struct {
	tenant string
	class  Class
}

// defaultScavengerShare is the minimum dispatch share reserved for
// backlogged scavenger work on a limited station.
const defaultScavengerShare = 0.05

func newScheduler(clock *simtime.Clock) *Scheduler {
	return &Scheduler{
		clock:     clock,
		stations:  make(map[string]*Station),
		scavShare: defaultScavengerShare,
		acct:      make(map[acctKey]*TenantStat),
	}
}

// Station finds or creates the named admission point. New stations
// are pass-through until SetLimit gives them a slot budget.
func (s *Scheduler) Station(name string) *Station {
	if st, ok := s.stations[name]; ok {
		return st
	}
	st := &Station{s: s, name: name}
	for i := range st.lanes {
		st.lanes[i].tenants = make(map[string]*tenantQ)
	}
	s.stations[name] = st
	m := s.metrics()
	m.reg.GaugeFunc("sched_in_flight", func() float64 { return float64(st.inFlight) }, "station", name)
	m.reg.GaugeFunc("sched_station_queued", func() float64 { return float64(st.queued) }, "station", name)
	return st
}

// SetLimit bounds the station to n ≥ 1 concurrent grants; it panics
// otherwise, since a limited station has no way back to pass-through
// for the waiters it queued. Lowering the limit never revokes live
// grants; the station just stops admitting until enough of them finish.
func (s *Scheduler) SetLimit(station string, n int) {
	if n < 1 {
		panic(fmt.Sprintf("sched: SetLimit(%q, %d): limit must be at least 1", station, n))
	}
	st := s.Station(station)
	st.slots = n
	st.pump()
}

// SetScavengerShare sets the anti-starvation dispatch share reserved
// for backlogged scavenger work.
func (s *Scheduler) SetScavengerShare(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	s.scavShare = f
}

// SetStarvationThreshold makes any admission wait beyond d count on
// the sched_starvation_total counter (0 disables).
func (s *Scheduler) SetStarvationThreshold(d simtime.Duration) { s.starveAfter = d }

// SetShedWatermark arms brownout shedding for the class: on limited
// stations, a new item of the class is refused at admission (ErrShed,
// counted on sched_shed_total) whenever the class's oldest queued item
// has already been waiting longer than d. Shedding the low classes at
// the door is what keeps interactive latency bounded through overload
// — the queue the watermark bounds is exactly the queue interactive
// work never stands in, because dispatch is strict-priority. d = 0
// disables (the default; unconfigured stations never shed).
func (s *Scheduler) SetShedWatermark(c Class, d simtime.Duration) {
	if c > classUnset && int(c) < len(s.shedMark) {
		if d < 0 {
			d = 0
		}
		s.shedMark[c] = d
	}
}

// SetSLO sets the class's queue-wait objective; dispatches that
// waited longer count on sched_slo_violations_total (0 disables).
func (s *Scheduler) SetSLO(c Class, d simtime.Duration) {
	if c > classUnset && int(c) < len(s.slo) {
		s.slo[c] = d
	}
}

// TenantStats returns per-(tenant, class) admission totals, sorted by
// tenant then class — the fairness-index input.
func (s *Scheduler) TenantStats() []TenantStat {
	out := make([]TenantStat, 0, len(s.acct))
	for _, a := range s.acct {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// ContentionStats reports how many dispatches were decided while
// scavenger work was backlogged, and how many of those went to the
// scavenger lane — observed share = scav/total.
func (s *Scheduler) ContentionStats() (scav, total int64) { return s.contScav, s.contTotal }

// schedMetrics bundles the scheduler's telemetry handles, created on
// first use from normal (non-SlotOf) context.
type schedMetrics struct {
	reg        *telemetry.Registry
	submitted  [4]*telemetry.Counter
	dispatched [4]*telemetry.Counter
	completed  [4]*telemetry.Counter
	queuedG    [4]*telemetry.Gauge
	wait       [4]*telemetry.Summary
	starved    [4]*telemetry.Counter
	sloViol    [4]*telemetry.Counter
	scavCredit *telemetry.Counter
	shed       [4]*telemetry.Counter // lazy: only overload runs shed
}

// shedCtr returns the class's sched_shed_total counter, registering it
// on first shed so unconfigured runs keep their telemetry snapshots
// unchanged.
func (m *schedMetrics) shedCtr(c Class) *telemetry.Counter {
	if m.shed[c] == nil {
		m.shed[c] = m.reg.Counter("sched_shed_total", "class", c.String())
	}
	return m.shed[c]
}

func (s *Scheduler) metrics() *schedMetrics {
	if s.m != nil {
		return s.m
	}
	reg := telemetry.Of(s.clock)
	m := &schedMetrics{reg: reg}
	for _, c := range classOrder {
		lbl := c.String()
		m.submitted[c] = reg.Counter("sched_submitted_total", "class", lbl)
		m.dispatched[c] = reg.Counter("sched_dispatched_total", "class", lbl)
		m.completed[c] = reg.Counter("sched_completed_total", "class", lbl)
		m.queuedG[c] = reg.Gauge("sched_queued", "class", lbl)
		m.wait[c] = reg.Summary("sched_queue_wait_seconds", "class", lbl)
		m.starved[c] = reg.Counter("sched_starvation_total", "class", lbl)
		m.sloViol[c] = reg.Counter("sched_slo_violations_total", "class", lbl)
		// Config gauges for the live operator plane: a scraper can see
		// the objectives the violation counters are judged against
		// (and watch an /ops retune land) without any report.
		c := c
		reg.GaugeFunc("sched_slo_seconds", func() float64 { return s.slo[c].Seconds() }, "class", lbl)
	}
	reg.GaugeFunc("sched_starvation_threshold_seconds", func() float64 { return s.starveAfter.Seconds() })
	reg.GaugeFunc("sched_scavenger_share", func() float64 { return s.scavShare })
	m.scavCredit = reg.Counter("sched_scavenger_credit_grants_total")
	s.m = m
	return m
}

// waiter is one blocked Admit call.
type waiter struct {
	item     Item
	enq      simtime.Duration
	latch    simtime.Latch
	rejected error // set before Signal when the queue cancels the item
}

// wfifo is a head-indexed FIFO of waiters (simtime's fifo shape).
type wfifo struct {
	buf  []*waiter
	head int
}

func (q *wfifo) len() int       { return len(q.buf) - q.head }
func (q *wfifo) front() *waiter { return q.buf[q.head] }
func (q *wfifo) push(w *waiter) { q.buf = append(q.buf, w) }
func (q *wfifo) pop() *waiter {
	w := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return w
}

// tenantQ is one tenant's backlog within a station lane.
type tenantQ struct {
	name      string
	exp, norm wfifo   // expedite (recall) items run first
	vtag      float64 // WFQ virtual start tag of the next item
}

func (t *tenantQ) empty() bool { return t.exp.len() == 0 && t.norm.len() == 0 }

func (t *tenantQ) head() *waiter {
	if t.exp.len() > 0 {
		return t.exp.front()
	}
	return t.norm.front()
}

func (t *tenantQ) pop() *waiter {
	if t.exp.len() > 0 {
		return t.exp.pop()
	}
	return t.norm.pop()
}

// lane is one QoS class's queue state within a station.
type lane struct {
	v       float64 // lane virtual time: start tag of the last dispatch
	tenants map[string]*tenantQ
	active  []*tenantQ // tenants with backlog, sorted by name
}

func (l *lane) backlogged() bool { return len(l.active) > 0 }

func (l *lane) activate(t *tenantQ) {
	i := sort.Search(len(l.active), func(i int) bool { return l.active[i].name >= t.name })
	if i < len(l.active) && l.active[i] == t {
		return
	}
	l.active = append(l.active, nil)
	copy(l.active[i+1:], l.active[i:])
	l.active[i] = t
}

func (l *lane) deactivate(t *tenantQ) {
	i := sort.Search(len(l.active), func(i int) bool { return l.active[i].name >= t.name })
	if i < len(l.active) && l.active[i] == t {
		l.active = append(l.active[:i], l.active[i+1:]...)
	}
}

// Station is one named admission point.
type Station struct {
	s    *Scheduler
	name string

	slots    int // 0 = pass-through
	inFlight int
	queued   int

	lanes    [4]lane // indexed by Class; ClassUnset never populated
	scavDebt float64
	dlQueued int // queued waiters carrying a deadline (fast path skip)

	dlCancel func() // deadline-cancel wake timer
	dlAt     simtime.Duration

	ctrDeadline *telemetry.Counter // lazy: only deadline runs cancel
}

// deadlineCtr returns the station's deadline_exceeded_total counter,
// registered on first cancellation so unconfigured runs keep their
// telemetry snapshots unchanged.
func (st *Station) deadlineCtr() *telemetry.Counter {
	if st.ctrDeadline == nil {
		st.ctrDeadline = st.s.metrics().reg.Counter("deadline_exceeded_total", "station", st.name)
	}
	return st.ctrDeadline
}

// Admit blocks the calling actor until the scheduler grants the item
// a dispatch slot, and returns the grant; call Done when the work
// finishes. On a pass-through station the grant is immediate — no
// virtual time passes and no events are scheduled, so an unlimited
// station is invisible to the simulation.
func (st *Station) Admit(it Item) *Grant {
	it.QoS = it.QoS.Or(Batch)
	if it.Units < 1 {
		it.Units = 1
	}
	s := st.s
	m := s.metrics()
	m.submitted[it.Class].Inc()
	a := s.account(it)
	a.Items++

	if it.Deadline > 0 && s.clock.Now() >= it.Deadline {
		// Already doomed on arrival: refuse without taking a slot.
		st.deadlineCtr().Inc()
		return &Grant{st: st, item: it, err: ErrDeadlineExceeded}
	}
	if mark := s.shedMark[it.Class]; mark > 0 && st.slots > 0 &&
		st.classWait(it.Class, s.clock.Now()) > mark {
		m.shedCtr(it.Class).Inc()
		return &Grant{st: st, item: it, err: ErrShed}
	}

	if st.slots <= 0 {
		// Pass-through: immediate grant. Skip the zero queue-wait
		// observation — a million exact zeros tell us nothing and the
		// summary would hold them all.
		st.inFlight++
		st.noteDispatch(it, 0)
		return &Grant{st: st, item: it}
	}

	w := &waiter{item: it, enq: s.clock.Now(), latch: simtime.MakeLatch(s.clock)}
	st.enqueue(w)
	st.pump()
	w.latch.Wait()
	wait := s.clock.Now() - w.enq
	if w.rejected != nil {
		return &Grant{st: st, item: it, err: w.rejected}
	}
	a.WaitSum += wait
	return &Grant{st: st, item: it}
}

// classWait reports how long the class's oldest queued item has been
// waiting at the station — the brownout signal SetShedWatermark
// compares against.
func (st *Station) classWait(c Class, now simtime.Duration) simtime.Duration {
	var oldest simtime.Duration = -1
	for _, tq := range st.lanes[c].active {
		if e := tq.head().enq; oldest < 0 || e < oldest {
			oldest = e
		}
	}
	if oldest < 0 {
		return 0
	}
	return now - oldest
}

func (st *Station) enqueue(w *waiter) {
	ln := &st.lanes[w.item.Class]
	tq, ok := ln.tenants[w.item.Tenant]
	if !ok {
		tq = &tenantQ{name: w.item.Tenant}
		ln.tenants[w.item.Tenant] = tq
	}
	if w.item.Expedite {
		tq.exp.push(w)
	} else {
		tq.norm.push(w)
	}
	ln.activate(tq)
	st.queued++
	if w.item.Deadline > 0 {
		st.dlQueued++
	}
	st.s.metrics().queuedG[w.item.Class].Add(1)
}

// pump grants queued items while slots are free, then arms a wake
// timer at the earliest queued deadline. Expired deadlines are purged
// first so a doomed item never takes a slot ahead of live work.
func (st *Station) pump() {
	st.expireDeadlines()
	for st.slots > 0 && st.inFlight < st.slots && st.queued > 0 {
		st.grant(st.pick())
	}
	st.armDeadlineTimer()
}

// expireDeadlines cancels queued items whose deadline passed while
// they waited: the waiter is signalled with ErrDeadlineExceeded and
// counted on deadline_exceeded_total. Only queue heads are examined —
// per-tenant FIFO order means an expired head is cancelled as soon as
// the station wakes, and buried items surface as heads in turn.
func (st *Station) expireDeadlines() {
	if st.dlQueued == 0 {
		return
	}
	now := st.s.clock.Now()
	for i := range st.lanes {
		ln := &st.lanes[i]
		for j := 0; j < len(ln.active); {
			tq := ln.active[j]
			for !tq.empty() {
				w := tq.head()
				if w.item.Deadline <= 0 || now < w.item.Deadline {
					break
				}
				tq.pop()
				st.cancelWaiter(w)
			}
			if tq.empty() {
				ln.deactivate(tq) // shifts the next tenant into slot j
			} else {
				j++
			}
		}
	}
}

// cancelWaiter removes a queued item from the station's accounting and
// wakes its Admit call with a deadline refusal.
func (st *Station) cancelWaiter(w *waiter) {
	st.queued--
	st.dlQueued--
	st.s.metrics().queuedG[w.item.Class].Add(-1)
	st.deadlineCtr().Inc()
	w.rejected = ErrDeadlineExceeded
	w.latch.Signal()
}

// armDeadlineTimer schedules a pump at the earliest queued deadline so
// cancellation does not wait for the next slot to free. It arms
// nothing when no queued item carries a deadline, so deadline-free
// runs schedule no extra events.
func (st *Station) armDeadlineTimer() {
	if st.slots <= 0 || st.dlQueued == 0 {
		st.disarmDeadlineTimer()
		return
	}
	var wake simtime.Duration
	found := false
	for i := range st.lanes {
		for _, tq := range st.lanes[i].active {
			if dl := tq.head().item.Deadline; dl > 0 && (!found || dl < wake) {
				wake, found = dl, true
			}
		}
	}
	if !found {
		st.disarmDeadlineTimer()
		return
	}
	if st.dlCancel != nil {
		if st.dlAt <= wake {
			return // an earlier-or-equal wake is already armed
		}
		st.disarmDeadlineTimer()
	}
	st.dlAt = wake
	st.dlCancel = st.s.clock.Callback(wake, func() {
		st.dlCancel = nil
		st.pump()
	})
}

func (st *Station) disarmDeadlineTimer() {
	if st.dlCancel != nil {
		st.dlCancel()
		st.dlCancel = nil
	}
}

// pick selects the next admission per policy from a station with
// work queued. The second result reports whether the anti-starvation
// credit forced a scavenger pick over backlogged higher-class work.
func (st *Station) pick() (*waiter, bool) {
	scav := &st.lanes[Scavenger]
	if scav.backlogged() && st.scavDebt >= 1 {
		higherBacklog := st.lanes[Interactive].backlogged() || st.lanes[Batch].backlogged()
		return pickTenant(scav).head(), higherBacklog
	}
	for _, c := range classOrder {
		if ln := &st.lanes[c]; ln.backlogged() {
			return pickTenant(ln).head(), false
		}
	}
	panic("sched: pick on a station with nothing queued")
}

// pickTenant returns the lane's backlogged tenant with the minimum
// virtual start tag (ties broken by name — the active list is
// name-sorted and the scan keeps the first minimum).
func pickTenant(ln *lane) *tenantQ {
	var best *tenantQ
	for _, tq := range ln.active {
		start := math.Max(ln.v, tq.vtag)
		if best == nil || start < math.Max(ln.v, best.vtag) {
			best = tq
		}
	}
	return best
}

// grant dispatches the head item of the picked waiter's queue.
func (st *Station) grant(w *waiter, scavCredit bool) {
	s := st.s
	it := w.item
	ln := &st.lanes[it.Class]
	tq := ln.tenants[it.Tenant]
	got := tq.pop()
	if got != w {
		panic("sched: picked waiter is not its tenant queue head")
	}
	if tq.empty() {
		ln.deactivate(tq)
	}
	st.queued--
	if it.Deadline > 0 {
		st.dlQueued--
	}
	s.metrics().queuedG[it.Class].Add(-1)

	// Advance the WFQ tags: the dispatched item starts at
	// max(lane.v, tenant.vtag) and the tenant's next start tag moves
	// units past it.
	start := math.Max(ln.v, tq.vtag)
	ln.v = start
	tq.vtag = start + float64(it.Units)

	// Anti-starvation ledger.
	if it.Class == Scavenger {
		if st.scavDebt >= 1 {
			st.scavDebt -= 1
		}
		if scavCredit {
			s.metrics().scavCredit.Inc()
		}
	} else if st.lanes[Scavenger].backlogged() {
		st.scavDebt += s.scavShare
	}
	if st.lanes[Scavenger].backlogged() || it.Class == Scavenger {
		s.contTotal++
		if it.Class == Scavenger {
			s.contScav++
		}
	}

	st.inFlight++
	st.noteDispatch(it, s.clock.Now()-w.enq)
	w.latch.Signal()
}

// noteDispatch records one admission on the telemetry.
func (st *Station) noteDispatch(it Item, wait simtime.Duration) {
	s := st.s
	m := s.metrics()
	m.dispatched[it.Class].Inc()
	if st.slots > 0 {
		m.wait[it.Class].Observe(wait.Seconds())
		if s.starveAfter > 0 && wait > s.starveAfter {
			m.starved[it.Class].Inc()
		}
		if d := s.slo[it.Class]; d > 0 && wait > d {
			m.sloViol[it.Class].Inc()
		}
	}
}

func (s *Scheduler) account(it Item) *TenantStat {
	k := acctKey{it.Tenant, it.Class}
	a, ok := s.acct[k]
	if !ok {
		a = &TenantStat{Tenant: it.Tenant, Class: it.Class}
		s.acct[k] = a
	}
	return a
}
