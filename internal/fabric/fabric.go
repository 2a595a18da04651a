// Package fabric is the data-path fabric of the deployment: one named
// topology graph of shared links (pool NSD arrays, the inter-system
// trunks, per-node NICs and HBAs, the TSM server LAN path) plus a
// coupled multi-hop flow scheduler. It is the one bandwidth model
// pftool, hsm and tsm share: callers resolve a Path with
// Route(src, via, dst) and move bytes with Transfer, and the scheduler
// sets every flow's rate by progressive-filling max-min fairness
// across every link the flow crosses — a flow bottlenecked at the
// trunk does not consume full fair share on the fast hops (the
// cut-through behaviour the paper's end-to-end bandwidth ceilings come
// from).
//
// Topology conventions (well-known endpoint names):
//
//	compute ──trunk── <cluster>-lan ──nic── ftaNN ──hba── san
//	                                          │
//	                                        (wire)
//	                                          │
//	clients ──pool link── <fs>:<pool>         │
//	   └──────────────────────────────────────┘
//
// File systems attach their pool links to the "clients" hub by default
// (archive-side: reachable from every node through a zero-cost wire);
// a scratch file system on the far side of the trunk attaches to
// "compute" instead, so pfcp routes cross the trunk and one NIC. The
// SAN side of each HBA meets at "san", where the tape drive heads live.
//
// All fabric state is mutated exclusively from simulation-actor
// context; the clock's single-actor execution serializes access, the
// same discipline every simtime primitive relies on.
package fabric

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Well-known endpoint names the layers agree on.
const (
	// Clients is the hub where archive-side pool arrays and the FTA
	// nodes meet (a node reaches a locally mounted file system without
	// crossing its NIC, matching the paper's FTAs that mount both file
	// systems directly).
	Clients = "clients"
	// Compute is the far side of the inter-system trunk: the
	// supercomputer/scratch side of the deployment.
	Compute = "compute"
	// SAN is the storage-area-network side of every HBA: the tape
	// drives and archive disk arrays.
	SAN = "san"
)

// slot is the clock slot Of resolves; with one clock per island the
// fabric is automatically island-local (flows are solved per island,
// and cross-island transfers hand off at the channel boundary).
var slot = simtime.NewSlot()

func newForClock(clock *simtime.Clock) interface{} { return New(clock) }

// edge is one adjacency: a link between two endpoints, or a zero-cost
// wire (nil link) that BFS traverses for free.
type edge struct {
	to   string
	link *Link
}

// Fabric is one topology graph plus its flow scheduler.
type Fabric struct {
	clock *simtime.Clock
	adj   map[string][]edge
	links map[string]*Link
	order []*Link // insertion order: deterministic iteration

	flows []*Flow // active flows in arrival order
	gen   uint64  // completion-timer generation
	last  simtime.Duration

	cancelTimer *bool            // handle canceling the armed completion timer, if any
	timerAt     simtime.Duration // deadline of the armed timer (fastRearm's min)
	timerFn     func(uint64)     // standing onTimer method value (no per-rearm closure)

	// Incremental-recompute state: epoch stamps the component walk,
	// fullRecompute forces every component to re-solve on every event
	// with the canonical walk and solver, bypassing solveHub (the
	// reference mode the equivalence tests set; incremental mode's
	// shortcuts reproduce its arithmetic bit for bit), and the slices
	// below are reusable scratch so the hot path allocates nothing.
	epoch           uint64
	solveID         uint64 // distinguishes components gathered within one epoch
	fullRecompute   bool
	hub             *Link  // last link every active flow crossed (solveHub)
	hubEpoch        uint64 // epoch solveHub last solved: every component done
	uniform         bool   // every active flow holds one rate (solveHub's fast path)
	hubFast         uint64 // solveHub outcomes, for the equivalence tests
	hubFallback     uint64
	compFlows       []*Flow
	compLinks       []*Link
	scratchA        []*Flow
	scratchB        []*Flow
	seedLinks       []*Link
	drainQ          []*Flow // streams drained this instant, awaiting finalize
	finalizePending bool
	finalizeFn      func() // cached finalizeStreams method value

	// Flow counters, resolved lazily on first Start: New may run inside
	// clock.SlotOf (Of), where telemetry.Of would deadlock on the clock
	// mutex; Start always runs from plain actor context.
	ctrFlowsStarted   *telemetry.Counter
	ctrFlowsCompleted *telemetry.Counter
	ctrFlowsCorrupted *telemetry.Counter
}

// New creates an empty fabric on the clock. Most callers want Of, which
// shares one fabric per clock so independently constructed layers
// (cluster, file systems, TSM) compose onto the same graph.
func New(clock *simtime.Clock) *Fabric {
	return &Fabric{
		clock: clock,
		adj:   make(map[string][]edge),
		links: make(map[string]*Link),
	}
}

// Of returns the fabric shared by every component on the clock,
// creating it on first use. The lookup is allocation-free and
// lock-free after the first call (one atomic load).
func Of(clock *simtime.Clock) *Fabric {
	return clock.SlotOf(slot, newForClock).(*Fabric)
}

// AddLink creates a link of the given capacity (bytes/second) between
// endpoints a and b, registering the endpoints as needed. A link name
// is its fault component (link:<name>) and its series label, so it
// must be unique on the clock: a name already taken panics. Plants
// sharing a clock name their links for their site (archive.Options.Site).
// A link may be attached between further endpoint pairs with
// AttachLink, modelling a shared medium (one pool array serving every
// node).
func (f *Fabric) AddLink(name string, capacity float64, a, b string) *Link {
	if capacity <= 0 {
		panic("fabric: link capacity must be positive")
	}
	if _, taken := f.links[name]; taken {
		panic(fmt.Sprintf("fabric: duplicate link name %q", name))
	}
	l := &Link{fab: f, name: name, capacity: capacity, nominal: capacity}
	f.links[name] = l
	f.order = append(f.order, l)
	f.connect(a, b, l)
	// Emit the link's accounting through the telemetry registry as
	// snapshot-time collected series (the fabric already keeps these
	// numbers; settle() is idempotent, so collecting is free). AddLink
	// always runs outside clock.SlotOf constructors, unlike New.
	tel := telemetry.Of(f.clock)
	tel.CounterFunc("fabric_link_bytes_total", func() float64 {
		f.settle()
		return l.bytes
	}, "link", l.name)
	tel.CounterFunc("fabric_link_busy_seconds_total", func() float64 {
		f.settle()
		return l.busy.Seconds()
	}, "link", l.name)
	tel.GaugeFunc("fabric_link_capacity_bytes_per_second", func() float64 {
		return l.capacity
	}, "link", l.name)
	tel.GaugeFunc("fabric_link_nominal_bytes_per_second", func() float64 {
		return l.nominal
	}, "link", l.name)
	tel.GaugeFunc("fabric_link_active_flows", func() float64 {
		return float64(l.active)
	}, "link", l.name)
	tel.GaugeFunc("fabric_link_peak_flows", func() float64 {
		return float64(l.peak)
	}, "link", l.name)
	return l
}

// AttachLink attaches an existing link between a further endpoint pair:
// the same shared medium reachable from several places.
func (f *Fabric) AttachLink(l *Link, a, b string) {
	if l.fab != f {
		panic("fabric: AttachLink with a link from a different fabric")
	}
	f.connect(a, b, l)
}

// Wire joins two endpoints at zero cost: routes traverse it without
// crossing a link (e.g. an FTA node reaching the archive hub it is
// directly attached to).
func (f *Fabric) Wire(a, b string) { f.connect(a, b, nil) }

func (f *Fabric) connect(a, b string, l *Link) {
	f.adj[a] = append(f.adj[a], edge{to: b, link: l})
	f.adj[b] = append(f.adj[b], edge{to: a, link: l})
}

// Link returns the named link, or nil.
func (f *Fabric) Link(name string) *Link { return f.links[name] }

// Route resolves the shortest path src -> via -> dst (fewest links;
// ties break deterministically by edge insertion order). An empty via
// routes src -> dst directly. The returned Path lists every link
// crossed, with repeats when both legs cross the same link.
func (f *Fabric) Route(src, via, dst string) (Path, error) {
	p := Path{fab: f}
	legs := [][2]string{{src, dst}}
	if via != "" && via != src && via != dst {
		legs = [][2]string{{src, via}, {via, dst}}
	}
	for _, leg := range legs {
		links, err := f.bfs(leg[0], leg[1], nil)
		if err != nil {
			return Path{}, err
		}
		p.links = append(p.links, links...)
	}
	return p, nil
}

// RouteAvoid resolves the fewest-link path src -> dst that crosses no
// link for which avoid reports true — WAN route selection around dead
// or partitioned links: a federation routes replication and failover
// traffic through surviving sites instead of crawling across a failed
// trunk. A nil avoid is plain Route. The error names both endpoints
// when every route is blocked (the partition case callers back off on).
func (f *Fabric) RouteAvoid(src, dst string, avoid func(*Link) bool) (Path, error) {
	links, err := f.bfs(src, dst, avoid)
	if err != nil {
		return Path{}, err
	}
	return Path{fab: f, links: links}, nil
}

// bfs finds the fewest-link path a -> b, returning the links crossed in
// order (wires contribute nothing). Links for which avoid reports true
// are not traversed (nil avoid admits every link).
func (f *Fabric) bfs(a, b string, avoid func(*Link) bool) ([]*Link, error) {
	if _, ok := f.adj[a]; !ok {
		return nil, fmt.Errorf("fabric: unknown endpoint %q", a)
	}
	if _, ok := f.adj[b]; !ok {
		return nil, fmt.Errorf("fabric: unknown endpoint %q", b)
	}
	if a == b {
		return nil, nil
	}
	type hop struct {
		from string
		via  *Link
	}
	prev := map[string]hop{a: {}}
	frontier := []string{a}
	found := false
	for len(frontier) > 0 && !found {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, e := range f.adj[cur] {
			if _, seen := prev[e.to]; seen {
				continue
			}
			if avoid != nil && e.link != nil && avoid(e.link) {
				continue
			}
			prev[e.to] = hop{from: cur, via: e.link}
			if e.to == b {
				found = true
				break
			}
			frontier = append(frontier, e.to)
		}
	}
	if !found {
		return nil, fmt.Errorf("fabric: no route from %q to %q", a, b)
	}
	var rev []*Link
	for at := b; at != a; {
		h := prev[at]
		if h.via != nil {
			rev = append(rev, h.via)
		}
		at = h.from
	}
	out := make([]*Link, len(rev))
	for i, l := range rev {
		out[len(rev)-1-i] = l
	}
	return out, nil
}

// Path is a resolved route: the ordered links a flow crosses.
type Path struct {
	fab   *Fabric
	links []*Link
}

// Empty reports whether the path crosses no links (zero value, or a
// route between co-located endpoints).
func (p Path) Empty() bool { return len(p.links) == 0 }

// Lookahead derives the conservative-engine lookahead this path
// supports: the earliest a transfer of at least minBytes dispatched
// "now" can complete at the far end is the summed propagation latency
// plus the time the fastest hop needs to carry the minimum quantum at
// nominal capacity. Degradation only slows links down (arrivals get
// later, never earlier), so nominal capacity keeps the bound safe. A
// cross-island channel built on this path may therefore promise its
// receiver exactly this much slack — the lookahead bound the parallel
// engine's concurrency is proportional to.
func (p Path) Lookahead(minBytes int64) simtime.Duration {
	var d simtime.Duration
	best := 0.0
	for _, l := range p.links {
		d += l.latency
		if l.nominal > best {
			best = l.nominal
		}
	}
	if minBytes > 0 && best > 0 {
		d += simtime.Duration(float64(minBytes) / best * 1e9)
	}
	return d
}

// Fabric returns the owning fabric (nil for the zero Path).
func (p Path) Fabric() *Fabric { return p.fab }

// Names returns the link names crossed, in order.
func (p Path) Names() []string {
	out := make([]string, len(p.links))
	for i, l := range p.links {
		out[i] = l.name
	}
	return out
}

// With returns a copy of the path extended by one more link (e.g. the
// TSM server's LAN hop when the deployment is not LAN-free).
func (p Path) With(l *Link) Path {
	if l == nil {
		return p
	}
	if p.fab != nil && p.fab != l.fab {
		panic("fabric: Path.With link from a different fabric")
	}
	np := p
	np.fab = l.fab
	np.links = append(append([]*Link(nil), p.links...), l)
	return np
}

// Transfer moves n bytes along the path, blocking the calling actor
// until the coupled flow completes.
func (p Path) Transfer(n int64) {
	if p.fab == nil {
		return
	}
	p.fab.Transfer(p, n)
}

// Link is one shared medium in the graph: a trunk, a NIC, an HBA, a
// pool's NSD array, a server LAN port. Capacity is bytes per virtual
// second, shared max-min fairly among the flows crossing it.
type Link struct {
	fab      *Fabric
	name     string
	capacity float64
	nominal  float64 // capacity before degradation, restored on repair

	// crossing lists the flows currently crossing the link (one entry
	// per flow, multiplicity lives on the flow's cross record) with
	// crossIdx pointing back at each flow's cross slot — the adjacency
	// the incremental scheduler walks to find a change's connected
	// component; n sums the crossing flows' multiplicities. load and
	// capLeft are that solver's per-link scratch; mark stamps the
	// component walk.
	crossing []*Flow
	crossIdx []int
	n        int
	load     float64
	capLeft  float64
	mark     uint64
	comp     uint64 // component-gather stamp (see Fabric.solveID)

	// Accounting (updated at settle points).
	bytes  float64          // cumulative bytes carried
	busy   simtime.Duration // time with at least one flow crossing
	active int              // distinct flows crossing now
	peak   int              // max concurrent flows seen

	// corruptQ holds armed silent corruptions, one per queued cause
	// event ID: the next flow to start across the link consumes one and
	// carries the taint. The link itself stays at full capacity — the
	// damage is invisible until a checksum is verified.
	corruptQ []uint64

	// latency is the link's propagation delay. The flow solver does not
	// charge it (LAN hops round to zero at archive timescales, and
	// charging it would perturb every calibrated experiment); it exists
	// for WAN links, where it is realized at the island boundary: the
	// cross-island channel delays each replication message by the
	// path's Lookahead, which sums these latencies. Zero by default.
	latency simtime.Duration
}

// SetLatency records the link's propagation delay (see the latency
// field for how it is realized). Returns the link for chaining.
func (l *Link) SetLatency(d simtime.Duration) *Link {
	if d < 0 {
		d = 0
	}
	l.latency = d
	return l
}

// Name reports the link's unique label.
func (l *Link) Name() string { return l.name }

// Capacity reports the current capacity in bytes per virtual second.
func (l *Link) Capacity() float64 { return l.capacity }

// setCapacity changes the link capacity. In-flight flows keep the bytes
// they have moved; every allocation is recomputed at the new capacity.
// This is the fault-injection hook for link degradation and repair.
func (l *Link) setCapacity(v float64) {
	if v <= 0 {
		panic("fabric: link capacity must be positive")
	}
	f := l.fab
	f.settle()
	l.capacity = v
	f.recomputeLinks([]*Link{l})
	f.rearm()
}

// scale sets capacity to factor x the nominal rate (scale(1) repairs).
func (l *Link) scale(factor float64) { l.setCapacity(l.nominal * factor) }

// armCorrupt arms one silent in-flight corruption on the link, tagged
// with the fault event ID that provoked it: the next flow to start
// across the link is tainted (Flow.Tainted) and delivers mangled data
// without any transport-level error. Arm repeatedly to taint several
// upcoming flows.
func (l *Link) armCorrupt(causeEvent uint64) {
	l.corruptQ = append(l.corruptQ, causeEvent)
}

// ArmedCorruptions reports how many armed corruptions have not yet
// been consumed by a flow.
func (l *Link) ArmedCorruptions() int { return len(l.corruptQ) }
