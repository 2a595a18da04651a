package simtime

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Conservative parallel discrete-event execution: a Group partitions
// the simulated world into islands, each a full Clock with its own
// actors, advancing independently on its own goroutine. The only
// cross-island coupling is the timestamped Channel: a message sent at
// local time t arrives at t+lookahead, and the receiver never advances
// past the minimum horizon promised by its inbound channels, so it can
// never miss a message from its past (the classic Chandy-Misra-Bryant
// scheme). Horizon-only promises are the null messages; when every
// island is blocked the group computes the global minimum next-event
// time and fast-forwards all horizons past it, which both bounds null-
// message traffic and breaks promise cycles.
//
// Determinism contract: the virtual outcome — every event order, every
// metric, every timestamp — is identical for any worker count,
// because each island executes a fixed event order (deliveries are
// keyed below local events, see internalBand) and slices only ever
// stop early, never reorder. Worker count changes wall-clock time
// only.

// pmsg is a sent message waiting on the receiver side for its
// timestamp to fall under the island's bound.
type pmsg struct {
	at      Duration
	chIdx   int
	seq     uint64
	payload interface{}
	recv    func(interface{})
}

// Channel is a one-way link between two islands. Messages carry the
// sender's local time plus the channel's lookahead; the lookahead is
// the physical reason the receiver may run ahead (a WAN link's
// propagation latency plus its minimum transfer quantum — see
// fabric.Path.Lookahead). A send never blocks: a blocking sender
// stalls its whole island mid-slice, and two islands blocking on full
// channels toward each other is an unbreakable deadlock (the classic
// bounded-buffer CMB failure). The message goes straight onto the
// receiver's pending list, where the receiver's conservative bound
// gates its delivery.
type Channel struct {
	g         *Group
	idx       int
	name      string
	from, to  *Island
	lookahead Duration
	recv      func(interface{})

	horizon Duration // promise: no future message with at < horizon
	seq     uint64
	msgs    uint64 // payload messages carried
	nulls   uint64 // horizon-only advances (null messages)
}

// Island is one partition: a Clock plus its channel endpoints.
type Island struct {
	g    *Group
	idx  int
	name string
	clk  *Clock

	in, out []*Channel
	pend    []pmsg // sent, undelivered messages

	next    Duration // earliest pending local event (-1 none), valid when settled
	running bool

	advances uint64        // bounded slices executed
	wall     time.Duration // wall time spent inside slices
	cv       *sync.Cond
}

// Group owns a set of islands and drives them to global quiescence.
type Group struct {
	mu       sync.Mutex
	islands  []*Island
	channels []*Channel
	sem      chan struct{}
	idle     int
	active   int
	done     bool
	gvt      uint64 // fast-forward rounds
	started  time.Time
}

// NewGroup returns an empty island group.
func NewGroup() *Group { return &Group{} }

// AddIsland creates a new island with a fresh clock.
func (g *Group) AddIsland(name string) *Island {
	i := &Island{g: g, idx: len(g.islands), name: name, clk: NewClock(), next: -1}
	i.cv = sync.NewCond(&g.mu)
	g.islands = append(g.islands, i)
	return i
}

// Clock returns the island's clock; build the island's world on it.
func (i *Island) Clock() *Clock { return i.clk }

// Connect creates a channel from one island to another. lookahead must
// be positive — it is the guarantee that a message sent "now" arrives
// strictly in the receiver's future, and the engine's ability to run
// islands concurrently is exactly proportional to it. recv runs inline
// on the receiving island's scheduler at the message timestamp; like
// Clock.Callback it must not park (push a Queue or unpark a waiter to
// hand work to an actor).
func (g *Group) Connect(from, to *Island, name string, lookahead Duration, recv func(interface{})) *Channel {
	if lookahead <= 0 {
		panic("simtime: channel lookahead must be positive")
	}
	ch := &Channel{
		g: g, idx: len(g.channels), name: name, from: from, to: to,
		lookahead: lookahead, recv: recv,
	}
	g.channels = append(g.channels, ch)
	from.out = append(from.out, ch)
	to.in = append(to.in, ch)
	return ch
}

// Send hands a timestamped message to the channel. It must be called
// from actor context on the sending island (the timestamp is the
// sender's current time plus the lookahead). It never blocks: the
// message joins the receiver's pending list under the group mutex.
func (ch *Channel) Send(payload interface{}) {
	at := ch.from.clk.Now() + ch.lookahead
	g := ch.g
	g.mu.Lock()
	ch.seq++
	ch.msgs++
	ch.to.pend = append(ch.to.pend, pmsg{at: at, chIdx: ch.idx, seq: ch.seq, payload: payload, recv: ch.recv})
	if at > ch.horizon {
		// A real message is itself a promise: per-channel timestamps
		// are non-decreasing because the sender's clock only moves
		// forward.
		ch.horizon = at
	}
	ch.to.cv.Signal()
	g.mu.Unlock()
}

// satAdd adds a lookahead to a horizon without overflowing past the
// engine's "never" instant.
func satAdd(t, d Duration) Duration {
	if t >= maxDuration-d {
		return maxDuration
	}
	return t + d
}

// boundLocked computes the island's conservative bound: the minimum
// horizon over inbound channels (unbounded for a source island). The
// island may execute every event strictly below it.
func (g *Group) boundLocked(i *Island) Duration {
	b := maxDuration
	for _, ch := range i.in {
		if ch.horizon < b {
			b = ch.horizon
		}
	}
	return b
}

// deliverLocked pushes every pending message with at < bound into the
// island's event heap, ordered by (at, channel index, send order) via
// the sub-internalBand key, and retains the rest.
func (i *Island) deliverLocked(bound Duration) {
	if len(i.pend) == 0 {
		return
	}
	sort.Slice(i.pend, func(a, b int) bool {
		pa, pb := &i.pend[a], &i.pend[b]
		if pa.at != pb.at {
			return pa.at < pb.at
		}
		if pa.chIdx != pb.chIdx {
			return pa.chIdx < pb.chIdx
		}
		return pa.seq < pb.seq
	})
	kept := i.pend[:0]
	for _, m := range i.pend {
		if m.at >= bound {
			kept = append(kept, m)
			continue
		}
		recv, payload := m.recv, m.payload
		key := uint64(m.chIdx)<<40 | (m.seq & (1<<40 - 1))
		i.clk.deliverAt(m.at, key, func() { recv(payload) })
	}
	i.pend = kept
}

// hasWorkLocked reports whether the island can make progress under
// bound b: a deliverable message or a local event strictly below it.
func (i *Island) hasWorkLocked(b Duration) bool {
	for idx := range i.pend {
		if i.pend[idx].at < b {
			return true
		}
	}
	return i.next >= 0 && i.next < b
}

// publishLocked raises the island's outbound promises after a slice
// bounded by b: every future send happens at execution time >= b (the
// island has processed everything below b, and future arrivals carry
// timestamps >= b by the same promise from its neighbours), hence at
// message timestamp >= b+lookahead. Horizon-only raises are the null
// messages of the scheme.
func (g *Group) publishLocked(i *Island, b Duration) {
	for _, ch := range i.out {
		h := satAdd(b, ch.lookahead)
		if h > ch.horizon {
			ch.horizon = h
			ch.nulls++
			ch.to.cv.Signal()
		}
	}
}

// tryRunLocked executes one bounded slice if the island has work.
// Returns true if a slice ran (g.mu was released and re-acquired).
func (g *Group) tryRunLocked(i *Island) bool {
	b := g.boundLocked(i)
	if !i.hasWorkLocked(b) {
		return false
	}
	i.deliverLocked(b)
	i.running = true
	g.active++
	g.mu.Unlock()

	g.sem <- struct{}{} // worker-count gate
	t0 := time.Now()
	next := i.clk.stepUntil(b)
	wall := time.Since(t0)
	<-g.sem

	g.mu.Lock()
	i.running = false
	g.active--
	i.next = next
	i.advances++
	i.wall += wall
	g.publishLocked(i, b)
	return true
}

// advanceLocked is the deadlock-avoidance fast-forward: with every
// island blocked, the global minimum next-event time E* is a floor on
// all future activity, so every horizon may jump to E*+lookahead in
// one round instead of creeping there through O(cycle) null messages.
// any=false means no event remains anywhere: global quiescence.
// bumped=false (with any=true) means horizons already reflect E*, so
// the caller gains nothing by re-running it.
func (g *Group) advanceLocked() (bumped, any bool) {
	estar := maxDuration
	for _, i := range g.islands {
		if i.next >= 0 && i.next < estar {
			estar = i.next
		}
		for idx := range i.pend {
			if i.pend[idx].at < estar {
				estar = i.pend[idx].at
			}
		}
	}
	if estar == maxDuration {
		return false, false
	}
	for _, ch := range g.channels {
		h := satAdd(estar, ch.lookahead)
		if h > ch.horizon {
			ch.horizon = h
			ch.nulls++
			bumped = true
			ch.to.cv.Signal()
		}
	}
	if bumped {
		g.gvt++
	}
	return bumped, true
}

// workAvailableLocked reports whether the island can progress under
// its current bound.
func (g *Group) workAvailableLocked(i *Island) bool {
	return i.hasWorkLocked(g.boundLocked(i))
}

// Run drives every island to global quiescence using at most workers
// concurrent slices (workers=1 is the single-threaded reference mode;
// the virtual outcome is identical for any value). It may be called
// repeatedly: each call runs the work currently scheduled (plus
// whatever it spawns) to exhaustion, then aligns all island clocks to
// the global maximum time and returns it, so the next call starts from
// a common instant. It errors if actors remain parked with no pending
// work anywhere — a cross-island deadlock.
func (g *Group) Run(workers int) (Duration, error) {
	if len(g.islands) == 0 {
		return 0, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(g.islands) {
		workers = len(g.islands)
	}
	g.mu.Lock()
	if g.started.IsZero() {
		g.started = time.Now()
	}
	g.done = false
	g.sem = make(chan struct{}, workers)
	// A new batch of work may have been scheduled since the last call;
	// re-arm every promise from the common aligned instant (all clocks
	// are equal after a Run, so start+lookahead is what each channel
	// can guarantee afresh).
	start := Duration(0)
	for _, i := range g.islands {
		if n := i.clk.Now(); n > start {
			start = n
		}
	}
	for _, ch := range g.channels {
		ch.horizon = satAdd(start, ch.lookahead)
	}
	for _, i := range g.islands {
		i.next = i.clk.peekNext()
	}
	var wg sync.WaitGroup
	for _, i := range g.islands {
		wg.Add(1)
		go func(i *Island) {
			defer wg.Done()
			g.mu.Lock()
			for !g.done {
				if g.tryRunLocked(i) {
					continue
				}
				// Blocked: wait for a horizon to open our bound, a
				// message to arrive, or global quiescence. The wait is
				// a predicate loop — a fast-forward we run ourselves
				// may open our own bound, and its signal would
				// otherwise be lost before the Wait.
				g.idle++
				for !g.done && !g.workAvailableLocked(i) {
					if g.idle == len(g.islands) && g.active == 0 {
						bumped, any := g.advanceLocked()
						if !any {
							// Global quiescence: nothing pending on
							// any island or channel.
							g.done = true
							for _, o := range g.islands {
								o.cv.Broadcast()
							}
							break
						}
						if bumped {
							// Re-check our own predicate before
							// sleeping; at most one no-op round
							// follows, so this cannot spin.
							continue
						}
					}
					i.cv.Wait()
				}
				g.idle--
			}
			g.mu.Unlock()
		}(i)
	}
	g.mu.Unlock()
	wg.Wait()

	// Global quiescence: align every clock to the common end instant
	// and check for stranded actors.
	end := Duration(0)
	parked := 0
	var stuck []string
	for _, i := range g.islands {
		if n := i.clk.Now(); n > end {
			end = n
		}
	}
	for _, i := range g.islands {
		i.clk.alignTo(end)
		i.clk.drainIdle()
		if p := i.clk.parkedActors(); p > 0 {
			parked += p
			stuck = append(stuck, fmt.Sprintf("%s:%d", i.name, p))
		}
	}
	if parked > 0 {
		return end, fmt.Errorf("simtime: cross-island deadlock, %d actor(s) parked with no pending work (%v)", parked, stuck)
	}
	return end, nil
}

// GroupStats is a point-in-time summary of the engine's own behaviour
// (not the model's): it is execution metadata and is deliberately kept
// out of the deterministic experiment outputs.
type GroupStats struct {
	Islands      []IslandStats
	Channels     []ChannelStats
	FastForwards uint64
	Events       uint64
	WallSeconds  float64
}

// IslandStats summarizes one island's execution.
type IslandStats struct {
	Name        string
	Events      uint64
	Advances    uint64
	WallSeconds float64
	Now         Duration
}

// ChannelStats summarizes one channel's traffic.
type ChannelStats struct {
	Name      string
	Messages  uint64
	Nulls     uint64
	Lookahead Duration
}

// Stats snapshots engine counters. Call between Run calls.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := GroupStats{FastForwards: g.gvt}
	if !g.started.IsZero() {
		s.WallSeconds = time.Since(g.started).Seconds()
	}
	for _, i := range g.islands {
		ev := i.clk.EventsProcessed()
		s.Events += ev
		s.Islands = append(s.Islands, IslandStats{
			Name: i.name, Events: ev, Advances: i.advances,
			WallSeconds: i.wall.Seconds(), Now: i.clk.Now(),
		})
	}
	for _, ch := range g.channels {
		s.Channels = append(s.Channels, ChannelStats{
			Name: ch.name, Messages: ch.msgs, Nulls: ch.nulls, Lookahead: ch.lookahead,
		})
	}
	return s
}

// peekNext reports the earliest live pending event time (-1 if none).
func (c *Clock) peekNext() Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.popCanceledLocked()
	if len(c.queue) == 0 {
		return -1
	}
	return c.queue[0].at
}

// alignTo advances a settled clock to a common instant. Only the group
// calls it, at global quiescence, so there is nothing to reorder.
func (c *Clock) alignTo(t Duration) {
	c.mu.Lock()
	if t > c.now {
		c.advance(t)
	}
	c.mu.Unlock()
}

// parkedActors reports actors parked on non-time waits.
func (c *Clock) parkedActors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parked
}
