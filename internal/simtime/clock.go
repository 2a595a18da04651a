// Package simtime provides a discrete-event virtual clock with
// coroutine actors, timed sleeps, FIFO resources and blocking queues. It
// is the timing foundation for every simulated substrate in this
// repository: terabyte-scale archive experiments advance virtual time
// deterministically and finish in milliseconds of real time.
//
// The model: actors are coroutines (iter.Pull, see actor.go) registered
// with Clock.Go. The scheduler (Clock.Run) is a single event loop on the
// goroutine that called it: it pops the next event and, for a spawn or a
// wake-up, switches directly into that actor; the actor runs until it
// blocks in a simtime primitive (Sleep, Resource.Acquire, Queue.Pop,
// WaitGroup.Wait, ...), which switches straight back. Clock.cur is the
// actor the loop is inside, and is how those primitives find the
// coroutine to suspend. Exactly one actor runs at a time because there is
// one loop and it resumes one coroutine per event; nothing passes through
// the Go scheduler, so an event costs heap work, not a thread wake-up.
// Blocking on anything else (a bare channel, a mutex held across a Sleep)
// blocks the loop itself and is a programming error, as is calling a
// blocking primitive from outside an actor (after Run, or from an inline
// Callback): that panics.
package simtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Duration aliases time.Duration; virtual time is a Duration since the
// simulation epoch (zero).
type Duration = time.Duration

// Clock is a discrete-event scheduler. The zero value is not usable;
// call NewClock.
type Clock struct {
	mu      sync.Mutex
	now     Duration
	nowBits atomic.Int64 // mirror of now: Now() reads it without the lock
	queue   eventHeap
	seq     uint64
	cur     *actor // the actor the scheduler loop is inside; nil otherwise
	parked  int    // actors parked on a non-time wait (queue/cond/resource)
	started bool
	events  uint64   // events dispatched since construction (engine throughput)
	limit   Duration // the exclusive bound runLocked is running to

	// idle holds finished actors' coroutines for the next spawn to reuse
	// (creating one costs a dozen allocations).
	idle []*actor

	// ncanceled counts canceled events still sitting in the heap; when
	// they outnumber the live half the heap is compacted in place.
	// Cancels that race a pop may overcount, which at worst compacts a
	// little early, so the counter is clamped rather than trusted.
	ncanceled int

	// instantFns run once the current virtual instant has fully drained,
	// before time advances (see AtInstantEnd).
	instantFns   []func()
	instantSpare []func() // recycled backing array for instantFns

	// Wall-clock pacing (SetPace): ratio is virtual-per-real seconds,
	// zero = free-run. The anchor pins a (virtual, real) origin so the
	// scheduler can compute the real-time budget for any future instant.
	paceRatio      float64
	paceAnchorVirt Duration
	paceAnchorReal time.Time

	// slots holds pre-resolved per-clock singletons (see slot.go). The
	// atomic.Value stores a []interface{} indexed by Slot; readers do one
	// atomic load and an index, no lock and no allocation.
	slots atomic.Value
}

type event struct {
	at       Duration
	seq      uint64 // FIFO tiebreak for equal timestamps
	wake     *actor // if non-nil, resume this blocked actor
	fn       func() // if non-nil, spawn as actor (or run inline when cb)
	fnArg    func(uint64)
	arg      uint64 // argument for fnArg
	cb       bool   // run fn inline in the scheduler loop, no actor
	canceled *bool
}

// internalBand is OR-ed into the seq of every locally scheduled event.
// Cross-island deliveries (island.go) carry seqs below the band keyed
// by (channel, message) instead, so a message timestamped T sorts ahead
// of every local event at T no matter when it was physically handed
// over. That is what makes one-worker and N-worker island runs execute
// the identical event order: conservative synchronization only
// guarantees a message arrives before its island's clock reaches T, not
// in which settle round, and without the band the delivery's FIFO seq
// relative to local events at T would depend on physical timing.
// Local events keep their exact relative order (the OR preserves the
// counter's ordering), so single-clock simulations are byte-for-byte
// unchanged.
const internalBand uint64 = 1 << 63

// eventHeap is a binary min-heap ordered by (at, seq). It implements
// push/pop directly on the concrete element type: container/heap's
// interface methods would box every event in and out of an interface
// value, one heap allocation per Sleep, wake, and timer in a simulation
// that performs millions of each.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	ev := old[n]
	old[n] = event{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time. It reads an atomic mirror of
// the scheduler's clock, so hot paths (telemetry counter bumps, fabric
// settles) pay no lock.
func (c *Clock) Now() Duration {
	return Duration(c.nowBits.Load())
}

// advance moves virtual time forward. The caller must hold c.mu.
func (c *Clock) advance(t Duration) {
	c.now = t
	c.nowBits.Store(int64(t))
}

// Go registers fn as an actor. Actors may spawn further actors. Go may
// be called before or during Run.
//
// Actor bodies are started through the event queue in registration
// order, and every wakeup likewise flows through the queue, so exactly
// one actor executes at a time: the simulation is fully deterministic.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.atLocked(c.now, fn)
}

// selfLocked returns the calling actor, which is the one the scheduler
// loop is inside. With the loop inside none, the caller is not an actor:
// c.mu, which the caller must hold, is released and the call panics.
func (c *Clock) selfLocked() *actor {
	if c.cur == nil {
		c.mu.Unlock()
		panic("simtime: blocking primitive called outside actor context")
	}
	return c.cur
}

// Sleep blocks the calling actor for d of virtual time. Non-positive
// durations yield to the scheduler at the current instant (other events
// scheduled for the same instant but earlier in FIFO order run first).
//
// When the wake-up would be the very next event the loop pops, Sleep
// dispatches it in place: it advances the clock and counts the event
// without the heap round trip and the two coroutine switches. seq and
// the event count move exactly as they would through the loop.
func (c *Clock) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	a := c.selfLocked()
	c.seq++
	at := c.now + d
	if c.wakeIsNextLocked(at) {
		c.events++
		c.advance(at)
		c.mu.Unlock()
		return
	}
	c.queue.push(event{at: at, seq: internalBand | c.seq, wake: a})
	c.mu.Unlock()
	a.yield(struct{}{})
}

// wakeIsNextLocked reports whether a wake-up pushed at t (>= now) would
// be the next event runLocked pops: no live event is due at or before t
// (one at t holds a smaller seq), no instant-end callback must run
// before time moves, no pacing wait stands between, and t is below the
// limit the loop runs to. The caller must hold c.mu.
func (c *Clock) wakeIsNextLocked(t Duration) bool {
	if c.paceRatio > 0 || t >= c.limit || (t > c.now && len(c.instantFns) > 0) {
		return false
	}
	c.popCanceledLocked()
	return len(c.queue) == 0 || c.queue[0].at > t
}

// park blocks the calling actor a (from selfLocked) until another actor
// or the scheduler wakes it via unpark. The caller must hold c.mu; park
// releases it.
func (c *Clock) park(a *actor) {
	c.parked++
	c.mu.Unlock()
	a.yield(struct{}{})
}

// unpark schedules a wake event at the current instant for a parked
// actor. The caller must hold c.mu. Routing wakeups through the event
// queue (rather than switching to the actor directly) keeps the order
// deterministic: the woken actor runs only after the waker has blocked.
func (c *Clock) unpark(a *actor) {
	c.parked--
	c.seq++
	c.queue.push(event{at: c.now, seq: internalBand | c.seq, wake: a})
}

// At schedules fn to run as a fresh actor at virtual time t (clamped to
// now). The returned cancel function prevents the callback if it has
// not fired yet; cancellation is best-effort, so periodic callbacks
// should carry a generation check of their own.
func (c *Clock) At(t Duration, fn func()) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.atLocked(t, fn)
}

// Callback schedules fn to run inline in the scheduler loop at virtual
// time t (clamped to now), without spawning an actor. It is
// the cheap timer for bookkeeping callbacks that never block: fn must
// not call Sleep, Pop, Acquire, Wait or any other parking primitive
// (scheduling further events, unparking waiters and bumping telemetry
// are all fine). The returned cancel works like At's.
func (c *Clock) Callback(t Duration, fn func()) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callbackAtLocked(t, fn)
}

// CallbackArg schedules fn(arg) inline in the scheduler loop at virtual
// time t, like Callback, but takes a standing function value plus a
// uint64 argument so rearm-heavy callers (the fabric's completion
// timer) allocate no closure per scheduling. It returns a cancellation
// handle for CancelCallback rather than a closure, for the same reason.
// The same no-parking rule as Callback applies to fn.
func (c *Clock) CallbackArg(t Duration, fn func(uint64), arg uint64) *bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		t = c.now
	}
	canceled := new(bool)
	c.seq++
	c.queue.push(event{at: t, seq: internalBand | c.seq, fnArg: fn, arg: arg, cb: true, canceled: canceled})
	return canceled
}

// CancelCallback cancels a pending CallbackArg timer by its handle.
// Like At's cancel it is best-effort: a callback already popped still
// runs, so periodic callbacks should carry a generation check.
func (c *Clock) CancelCallback(canceled *bool) {
	c.mu.Lock()
	if !*canceled {
		*canceled = true
		c.ncanceled++
		c.maybeCompactLocked()
	}
	c.mu.Unlock()
}

// AtInstantEnd queues fn to run once the current virtual instant has
// fully drained: every actor is blocked and no live pending event
// remains at the present time — the last word before time advances.
// Like Callback's fn it runs inline on the scheduler and must not park,
// but it may schedule events (including at the current instant, which
// re-opens the instant; queued instant-end callbacks then run again
// once it drains). The fabric uses this to tear down idle persistent
// flows only when the instant's burst of work is truly over.
func (c *Clock) AtInstantEnd(fn func()) {
	c.mu.Lock()
	c.instantFns = append(c.instantFns, fn)
	c.mu.Unlock()
}

// popCanceledLocked discards canceled events sitting at the heap top,
// so peeking at the next live event is accurate. The caller must hold
// c.mu.
func (c *Clock) popCanceledLocked() {
	for len(c.queue) > 0 && c.queue[0].canceled != nil && *c.queue[0].canceled {
		c.queue.pop()
		if c.ncanceled > 0 {
			c.ncanceled--
		}
	}
}

// atLocked requires c.mu held.
func (c *Clock) atLocked(t Duration, fn func()) (cancel func()) {
	return c.pushFnLocked(t, fn, false)
}

// callbackAtLocked requires c.mu held.
func (c *Clock) callbackAtLocked(t Duration, fn func()) (cancel func()) {
	return c.pushFnLocked(t, fn, true)
}

func (c *Clock) pushFnLocked(t Duration, fn func(), cb bool) (cancel func()) {
	if t < c.now {
		t = c.now
	}
	canceled := new(bool)
	c.seq++
	c.queue.push(event{at: t, seq: internalBand | c.seq, fn: fn, cb: cb, canceled: canceled})
	return func() {
		c.mu.Lock()
		if !*canceled {
			*canceled = true
			c.ncanceled++
			c.maybeCompactLocked()
		}
		c.mu.Unlock()
	}
}

// maybeCompactLocked drops canceled events from the heap once they
// outnumber the live ones, so churny timer patterns (cancel-and-rearm
// per flow completion) keep the heap bounded by live work instead of
// growing with cancellation history. The caller must hold c.mu.
func (c *Clock) maybeCompactLocked() {
	if c.ncanceled <= len(c.queue)/2 || len(c.queue) < 64 {
		return
	}
	kept := c.queue[:0]
	for _, ev := range c.queue {
		if ev.canceled != nil && *ev.canceled {
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(c.queue); i++ {
		c.queue[i] = event{}
	}
	c.queue = kept
	c.queue.init()
	c.ncanceled = 0
}

// runLocked is the scheduler loop, bounded by an exclusive time limit:
// it drives the simulation until no live event before limit is pending
// (every actor is then blocked or done), then returns the earliest pending
// event time (-1 if the heap is empty). Run passes an unreachable limit
// to drain everything; the island runtime (island.go) passes its
// conservative bound so the clock never outruns what its neighbours
// might still send. The caller must hold c.mu; runLocked returns with
// it held.
func (c *Clock) runLocked(limit Duration) (next Duration) {
	c.limit = limit
	for {
		c.popCanceledLocked()
		if len(c.instantFns) > 0 && (len(c.queue) == 0 || c.queue[0].at > c.now) {
			// The current instant has drained: run the end-of-instant
			// callbacks before time advances. They may re-open the
			// instant (schedule events at now), so loop back after.
			// Stopping at the limit still counts as draining the
			// instant — events at or past the limit are strictly in the
			// future, so the callbacks fire before the clock parks.
			fns := c.instantFns
			c.instantFns = c.instantSpare[:0]
			c.instantSpare = nil
			c.mu.Unlock()
			for i, fn := range fns {
				fns[i] = nil
				fn()
			}
			c.mu.Lock()
			if c.instantSpare == nil {
				c.instantSpare = fns[:0]
			}
			continue
		}
		if len(c.queue) == 0 {
			return -1
		}
		if c.queue[0].at >= limit {
			return c.queue[0].at
		}
		if c.paceRatio > 0 && c.queue[0].at > c.now && c.paceWaitLocked(c.queue[0].at) {
			// Slept a pacing slice with the lock dropped: re-evaluate
			// from the top — an external Callback may have landed at
			// the current instant and must run before time advances.
			continue
		}
		ev := c.queue.pop()
		c.events++
		if ev.at > c.now {
			c.advance(ev.at)
		}
		switch {
		case ev.cb:
			// Inline callback: run on the scheduler goroutine with the
			// lock dropped. The callback never parks, so the loop
			// resumes at the next event.
			c.mu.Unlock()
			if ev.fnArg != nil {
				ev.fnArg(ev.arg)
			} else {
				ev.fn()
			}
			c.mu.Lock()
		case ev.fn != nil:
			c.spawnLocked(ev.fn)
		default:
			c.resumeLocked(ev.wake)
		}
	}
}

// Run drives the simulation until no actor remains runnable and no
// timed event is pending. It returns the final virtual time. If actors
// remain parked on queues/conditions that nobody will ever signal, Run
// returns a deadlock error naming the count.
func (c *Clock) Run() (Duration, error) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return 0, fmt.Errorf("simtime: Run called twice")
	}
	c.started = true
	defer c.drainIdle()
	c.runLocked(maxDuration)
	end := c.now
	deadlocked := c.parked
	c.mu.Unlock()
	if deadlocked > 0 {
		return end, fmt.Errorf("simtime: deadlock, %d actor(s) parked with no pending events", deadlocked)
	}
	return end, nil
}

// maxDuration is an unreachable virtual instant: Run's "no limit".
const maxDuration = Duration(1<<63 - 1)

// stepUntil runs the scheduler until every actor is blocked and no
// live event remains before limit (exclusive), returning the earliest
// pending event time (-1 if none). Unlike Run it may be called
// repeatedly; the island runtime drives each island's clock through it,
// one bounded slice at a time. A later Run on the same clock still
// errors, so a clock belongs to exactly one driver.
func (c *Clock) stepUntil(limit Duration) Duration {
	c.mu.Lock()
	c.started = true
	next := c.runLocked(limit)
	c.mu.Unlock()
	return next
}

// deliverAt schedules fn inline at virtual time t with an explicit
// ordering key below every locally scheduled event at the same instant
// (see internalBand). Only the island runtime calls it, between
// stepUntil slices when the clock is settled; key is unique per
// (channel, message) so equal-timestamp deliveries order by channel
// construction order then send order — physical arrival timing never
// shows through.
func (c *Clock) deliverAt(t Duration, key uint64, fn func()) {
	c.mu.Lock()
	if t < c.now {
		panic(fmt.Sprintf("simtime: cross-island delivery at %v behind local clock %v", t, c.now))
	}
	c.queue.push(event{at: t, seq: key, fn: fn, cb: true})
	c.mu.Unlock()
}

// EventsProcessed reports how many events the scheduler has dispatched
// since construction — the engine-throughput numerator for events/s.
func (c *Clock) EventsProcessed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// RunFor is a convenience wrapper: it panics on deadlock and returns the
// final virtual time. Useful in tests and examples.
func (c *Clock) RunFor() Duration {
	end, err := c.Run()
	if err != nil {
		panic(err)
	}
	return end
}
