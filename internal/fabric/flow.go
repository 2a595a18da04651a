package fabric

import (
	"math"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Flow is one in-flight transfer: B bytes traversing every link of its
// path simultaneously, at one coupled rate. The rate is recomputed by
// progressive-filling max-min fairness whenever any flow joins, leaves,
// or a link capacity changes; between those events the flow needs no
// bookkeeping, so a petabyte transfer costs O(1) events.
//
// A Flow is either one-shot (Start ... Wait) or a persistent stream
// (Stream ... Push ... Wait ... Push ... Wait ... Close): a stream stays
// allocated across back-to-back segments, so a worker pumping thousands
// of small batches over one route pays for one fair-share recompute
// instead of two per batch. Starting a transfer never blocks — Start
// and Push return at once, leaving the caller free to run something
// else over the same virtual interval (a tape drive's write, say) — and
// Wait blocks until it drains; Send and Transfer are the start-and-wait
// shorthands. Each segment is accounted exactly like a one-shot flow
// would be — same counters, same taint consumption, same per-link byte
// and busy accounting — so the virtual-time results are identical.
type Flow struct {
	fab   *Fabric
	cross []linkCross // unique links on the path with crossing multiplicity

	bytes     float64
	remaining float64
	rate      float64 // current allocation, bytes/s
	capRate   float64 // per-flow stream cap; 0 = uncapped
	done      bool
	mark      uint64        // component-walk epoch (solver scratch)
	comp      uint64        // component-gather stamp (solver scratch)
	waitGate  simtime.Latch // completion gate (reset per stream segment)

	persistent bool // long-lived stream: Push extends, drain pauses lazily
	inFlows    bool // member of fab.flows and the link crossing lists
	draining   bool // segment drained; instant-end finalize will pause it

	tainted    bool   // a crossed link silently corrupted the stream
	taintCause uint64 // fault event ID that armed the corruption
}

// linkCross is a unique link on a flow's path with its multiplicity: a
// flow whose route crosses a link k times consumes k x its rate there.
// pos is the flow's index in link.crossing.
type linkCross struct {
	link *Link
	k    int
	pos  int
}

// completionEps is the service slack at which a flow counts as done: a
// byte of accumulated float rounding, invisible at simulation scale.
const completionEps = 1.0

// minRate floors every allocation so a flow on a crawling link still
// makes forward progress instead of wedging virtual time.
const minRate = 1.0

// counters resolves the flow counters lazily: New may run inside
// clock.SlotOf (Of), where telemetry.Of would deadlock on the clock
// mutex; Start and Push always run from plain actor context.
func (f *Fabric) counters() {
	if f.ctrFlowsStarted == nil {
		tel := telemetry.Of(f.clock)
		f.ctrFlowsStarted = tel.Counter("fabric_flows_started_total")
		f.ctrFlowsCompleted = tel.Counter("fabric_flows_completed_total")
		f.ctrFlowsCorrupted = tel.Counter("fabric_flows_corrupted_total")
	}
}

// buildCross fills cross from a resolved route. Paths are a handful of
// hops, so the duplicate scan is linear, not a map.
func (fl *Flow) buildCross(links []*Link) {
	fl.cross = make([]linkCross, 0, len(links))
	for _, l := range links {
		found := -1
		for i := range fl.cross {
			if fl.cross[i].link == l {
				found = i
				break
			}
		}
		if found >= 0 {
			fl.cross[found].k++
			continue
		}
		fl.cross = append(fl.cross, linkCross{link: l, k: 1})
	}
}

// consumeTaint consumes at most one armed silent corruption from the
// links the flow crosses, in path order — the per-flow (or, for
// streams, per-segment) half of Link.ArmCorrupt.
func (fl *Flow) consumeTaint() {
	fl.tainted, fl.taintCause = false, 0
	for i := range fl.cross {
		l := fl.cross[i].link
		if len(l.corruptQ) > 0 {
			fl.taintCause = l.corruptQ[0]
			l.corruptQ = l.corruptQ[1:]
			fl.tainted = true
			fl.fab.ctrFlowsCorrupted.Inc()
			return
		}
	}
}

// Start launches a flow of n bytes along the path and returns without
// blocking; Wait blocks until it completes. Zero-byte flows and empty
// paths (co-located endpoints) complete immediately. Must be called
// from actor context.
func (f *Fabric) Start(p Path, n int64) *Flow { return f.start(p, n, 0) }

// start is Start with a per-flow cap (see SetCap; 0 = uncapped).
func (f *Fabric) start(p Path, n int64, capRate float64) *Flow {
	f.counters()
	f.ctrFlowsStarted.Inc()
	fl := &Flow{fab: f, bytes: float64(n), remaining: float64(n), capRate: capRate, waitGate: simtime.MakeLatch(f.clock)}
	if n <= 0 || len(p.links) == 0 {
		fl.remaining = 0
		fl.done = true
		f.ctrFlowsCompleted.Inc()
		fl.waitGate.Signal()
		return fl
	}
	if p.fab != f {
		panic("fabric: Start with a path from a different fabric")
	}
	fl.buildCross(p.links)
	fl.consumeTaint()
	f.settle()
	f.join(fl)
	f.recomputeFlow(fl)
	f.rearm()
	return fl
}

// Stream opens a persistent flow along the path: it holds no allocation
// until Push starts a segment through it, and between segments that end
// at different instants it leaves the allocation entirely (lazy pause —
// an idle stream steals no share). One segment may be in flight at a
// time; Wait blocks until it drains.
func (f *Fabric) Stream(p Path) *Flow {
	fl := &Flow{fab: f, persistent: true, waitGate: simtime.MakeLatch(f.clock)}
	if len(p.links) > 0 {
		if p.fab != f {
			panic("fabric: Stream with a path from a different fabric")
		}
		fl.buildCross(p.links)
	}
	return fl
}

// SetCap bounds the stream to at most rate bytes/second regardless of
// link shares — the single-stream ceiling of a striped pool (one file
// descriptor only reaches the NSDs its stripes land on). The cap
// participates in the max-min allocation, so a capped stream leaves
// its unused share to others. Non-positive rates mean uncapped. Set it
// before the first Push: the stream joins the allocation with it.
func (fl *Flow) SetCap(rate float64) {
	if fl.inFlows {
		panic("fabric: SetCap on a stream with a segment in flight")
	}
	fl.capRate = max(rate, 0)
}

// Push starts a segment of n more bytes through the stream and returns
// without blocking; Wait blocks until it drains and Tainted then reports
// whether a crossed link silently corrupted it (and which fault event
// armed it). Each segment is one flow's worth of accounting: the
// started/completed counters, the corruption queue, and the per-link
// active/peak numbers all see it exactly as they would a one-shot
// Start. One segment may be in flight at a time.
func (fl *Flow) Push(n int64) {
	f := fl.fab
	if !fl.persistent {
		panic("fabric: Push on a one-shot flow")
	}
	if fl.done {
		panic("fabric: Push on a closed stream")
	}
	f.counters()
	f.ctrFlowsStarted.Inc()
	if n <= 0 || len(fl.cross) == 0 {
		fl.tainted, fl.taintCause = false, 0
		f.ctrFlowsCompleted.Inc()
		fl.waitGate = simtime.MakeLatch(f.clock)
		fl.waitGate.Signal()
		return
	}
	fl.consumeTaint()
	f.settle()
	fl.bytes += float64(n)
	fl.remaining += float64(n)
	fl.waitGate = simtime.MakeLatch(f.clock)
	switch {
	case fl.draining:
		// Re-extended within the drain instant: the stream never left
		// the allocation, so its rate (and everyone else's) is already
		// right — no recompute, just restore the active accounting and
		// re-arm for the new horizon. This is the fast path that makes
		// back-to-back small segments O(1).
		fl.draining = false
		for i := range fl.cross {
			l := fl.cross[i].link
			l.active++
			if l.active > l.peak {
				l.peak = l.active
			}
		}
		f.fastRearm(fl)
	case !fl.inFlows:
		// Paused (or first Push): join the allocation like a fresh flow.
		f.join(fl)
		f.recomputeFlow(fl)
		f.rearm()
	default:
		panic("fabric: concurrent Push on one stream")
	}
}

// Send pushes n more bytes through the stream and blocks the calling
// actor until they drain: Push, Wait, Tainted.
func (fl *Flow) Send(n int64) (causeEvent uint64, tainted bool) {
	fl.Push(n)
	fl.Wait()
	return fl.Tainted()
}

// Close marks the stream finished. It must not be called with a segment
// in flight (callers that Wait on each segment are safe).
func (fl *Flow) Close() {
	if !fl.persistent || fl.done {
		return
	}
	if fl.remaining > 0 {
		panic("fabric: Close with a segment in flight")
	}
	fl.done = true
}

// join adds the flow to the active set and the per-link crossing lists.
// A stream joins at the end of f.flows on every activation, so the
// solver sees it in the same arrival order a one-shot flow would have.
func (f *Fabric) join(fl *Flow) {
	f.flows = append(f.flows, fl)
	fl.inFlows = true
	for i := range fl.cross {
		l := fl.cross[i].link
		fl.cross[i].pos = len(l.crossing)
		l.crossing = append(l.crossing, fl)
		l.crossIdx = append(l.crossIdx, i)
		l.n += fl.cross[i].k
		l.active++
		if l.active > l.peak {
			l.peak = l.active
		}
	}
}

// unlink removes the flow from the per-link crossing lists
// (swap-remove; the moved flow's back-pointer is patched). The caller
// handles f.flows membership and the active counters.
func (f *Fabric) unlink(fl *Flow) {
	for i := range fl.cross {
		l := fl.cross[i].link
		j := fl.cross[i].pos
		last := len(l.crossing) - 1
		if j != last {
			moved := l.crossing[last]
			mi := l.crossIdx[last]
			l.crossing[j] = moved
			l.crossIdx[j] = mi
			moved.cross[mi].pos = j
		}
		l.crossing[last] = nil
		l.crossing = l.crossing[:last]
		l.crossIdx = l.crossIdx[:last]
		l.n -= fl.cross[i].k
	}
	fl.inFlows = false
}

// Transfer moves n bytes along the path, blocking the calling actor
// until the flow completes.
func (f *Fabric) Transfer(p Path, n int64) { f.Start(p, n).Wait() }

// Wait blocks the calling actor until the flow (or, for a stream, the
// current segment) completes.
func (fl *Flow) Wait() { fl.waitGate.Wait() }

// Tainted reports whether a link silently corrupted this flow's
// stream, and if so which fault event armed it. The flow still
// completes normally — a reader only learns of the damage by checking
// a checksum.
func (fl *Flow) Tainted() (causeEvent uint64, ok bool) {
	return fl.taintCause, fl.tainted
}

// Transferred reports bytes moved so far, settled to the present — the
// pull-style progress source pftool's WatchDog samples (a single flow
// spanning a whole file generates no events of its own to push). For a
// stream it is cumulative across segments.
func (fl *Flow) Transferred() int64 {
	if !fl.done && fl.inFlows {
		fl.fab.settle()
	}
	return int64(fl.bytes - fl.remaining)
}

// settle advances every active flow to the present at its current rate,
// crediting per-link byte and busy accounting.
func (f *Fabric) settle() {
	now := f.clock.Now()
	dt := now - f.last
	if dt <= 0 {
		return
	}
	f.last = now
	if len(f.flows) == 0 {
		return
	}
	sec := dt.Seconds()
	for _, fl := range f.flows {
		delta := fl.rate * sec
		if delta > fl.remaining {
			delta = fl.remaining
		}
		fl.remaining -= delta
		for i := range fl.cross {
			fl.cross[i].link.bytes += delta * float64(fl.cross[i].k)
		}
	}
	for _, l := range f.order {
		if l.active > 0 {
			l.busy += dt
		}
	}
}

// recomputeFlow recomputes the connected component the flow belongs to
// (or everything, in full mode).
func (f *Fabric) recomputeFlow(fl *Flow) {
	if f.fullRecompute {
		f.recomputeAll()
		return
	}
	if len(fl.cross) == 0 {
		return
	}
	f.epoch++
	f.solveComponentFrom(fl.cross[0].link)
}

// recomputeLinks recomputes every component touching the seed links.
func (f *Fabric) recomputeLinks(seeds []*Link) {
	if f.fullRecompute {
		f.recomputeAll()
		return
	}
	f.epoch++
	for _, l := range seeds {
		f.solveComponentFrom(l)
	}
}

// recomputeAll solves every connected component, in arrival order of
// each component's first flow. Incremental recomputes run the same
// per-component solver, so skipping untouched components changes no
// allocation: a deterministic solver over unchanged inputs returns the
// rates those flows already have.
func (f *Fabric) recomputeAll() {
	f.epoch++
	for _, fl := range f.flows {
		if fl.mark != f.epoch && len(fl.cross) > 0 {
			f.solveComponentFrom(fl.cross[0].link)
		}
	}
}

// solveComponentFrom gathers the connected component of the flow/link
// sharing graph reachable from seed (skipping it if this epoch already
// solved it) and runs the canonical max-min solver on it: flows in
// arrival order, links in creation order — the same deterministic
// iteration the global recompute used, restricted to the component.
// The BFS only stamps epoch marks; the canonical order is recovered by
// filtering f.flows (kept in arrival order by join/filter) and f.order
// (in creation order by construction), so no sort is needed.
func (f *Fabric) solveComponentFrom(seed *Link) {
	if seed.mark == f.epoch || f.hubEpoch == f.epoch {
		return
	}
	if seed.n > 0 && !f.fullRecompute {
		if h := f.findHub(seed); h != nil {
			f.solveHub(h)
			return
		}
	}
	f.solveID++
	seed.mark, seed.comp = f.epoch, f.solveID
	f.compLinks = append(f.compLinks[:0], seed)
	nflows := 0
	for i := 0; i < len(f.compLinks); i++ {
		for _, fl := range f.compLinks[i].crossing {
			if fl.comp == f.solveID {
				continue
			}
			fl.mark, fl.comp = f.epoch, f.solveID
			nflows++
			for j := range fl.cross {
				l := fl.cross[j].link
				if l.comp != f.solveID {
					l.mark, l.comp = f.epoch, f.solveID
					f.compLinks = append(f.compLinks, l)
				}
			}
		}
	}
	if nflows == 0 {
		return
	}
	f.compFlows = f.compFlows[:0]
	for _, fl := range f.flows {
		if fl.comp == f.solveID {
			f.compFlows = append(f.compFlows, fl)
		}
	}
	nlinks := len(f.compLinks)
	f.compLinks = f.compLinks[:0]
	for _, l := range f.order {
		if l.comp == f.solveID {
			f.compLinks = append(f.compLinks, l)
			if len(f.compLinks) == nlinks {
				break
			}
		}
	}
	f.solve(f.compFlows, f.compLinks)
}

// findHub returns a link every active flow crosses, or nil. If one
// exists it lies on the path of every flow, the seed's first flow
// included, so checking the cached hub, the seed and that flow's links
// finds it.
func (f *Fabric) findHub(seed *Link) *Link {
	n := len(f.flows)
	if f.hub != nil && len(f.hub.crossing) == n {
		return f.hub
	}
	if len(seed.crossing) == n {
		f.hub = seed
		return seed
	}
	for _, c := range seed.crossing[0].cross {
		if len(c.link.crossing) == n {
			f.hub = c.link
			return c.link
		}
	}
	return nil
}

// solveHub solves the fabric's one component when a hub h connects
// every active flow: the component is f.flows (arrival order) and the links
// with n > 0 (id order), no walk needed. share is the canonical
// solver's first-pass bottleneck — integer loads are exact in float64,
// so capacity/float64(n) is the very quotient it computes. When no cap
// binds at or below that share and a replay of the binding pass on the
// hub freezes every flow, pass one is the whole solve and every flow
// gets the share. Otherwise solve runs on the gathered lists.
func (f *Fabric) solveHub(h *Link) {
	f.hubEpoch = f.epoch
	share := math.Inf(1)
	for _, l := range f.order {
		if l.n > 0 {
			if s := l.capacity / float64(l.n); s < share {
				share = s
			}
		}
	}
	if f.hubBinds(h, share) {
		r := share
		if r < minRate {
			r = minRate
		}
		for _, fl := range f.flows {
			fl.rate = r
		}
		f.uniform = true
		f.hubFast++
		return
	}
	f.hubFallback++
	f.compLinks = f.compLinks[:0]
	for _, l := range f.order {
		if l.n > 0 {
			f.compLinks = append(f.compLinks, l)
		}
	}
	f.solve(f.flows, f.compLinks)
}

// hubBinds reports whether solve's first pass would freeze every flow
// at share through the hub: no cap binds, and h's ratio stays within
// bindTol of share as the flows freeze one by one in arrival order (the
// pass's own arithmetic, replayed on h alone). Its first test is h's
// capacity/n itself, so h must be a minimising link to within bindTol —
// which is all the canonical pass asks of a link to freeze its flows.
func (f *Fabric) hubBinds(h *Link, share float64) bool {
	capLeft, load := h.capacity, float64(h.n)
	once := h.n == len(f.flows) // every flow crosses h exactly once
	for _, fl := range f.flows {
		if fl.capRate > 0 && fl.capRate <= share {
			return false
		}
		if !(load > 0 && capLeft/load <= share*bindTol) {
			return false
		}
		k := 1
		for i := 0; !once && i < len(fl.cross); i++ {
			if fl.cross[i].link == h {
				k = fl.cross[i].k
				break
			}
		}
		capLeft -= share * float64(k)
		if capLeft < 0 {
			capLeft = 0
		}
		load -= float64(k)
	}
	return true
}

// solve reruns progressive-filling max-min fairness over one component:
// repeatedly find the tightest constraint — the link with the smallest
// capacity-left / crossings share, or a flow cap below it — freeze the
// flows it binds at that rate, subtract them, and continue. The link
// scratch lives on the Link itself (no maps), which is most of the
// solver's former cost at campaign scale.
func (f *Fabric) solve(flows []*Flow, links []*Link) {
	f.uniform = false
	for _, l := range links {
		l.load = 0
		l.capLeft = l.capacity
	}
	for _, fl := range flows {
		for i := range fl.cross {
			fl.cross[i].link.load += float64(fl.cross[i].k)
		}
	}
	freeze := func(fl *Flow, r float64) {
		for i := range fl.cross {
			l := fl.cross[i].link
			l.capLeft -= r * float64(fl.cross[i].k)
			if l.capLeft < 0 {
				l.capLeft = 0
			}
			l.load -= float64(fl.cross[i].k)
		}
		if r < minRate {
			r = minRate
		}
		fl.rate = r
	}
	unfrozen := append(f.scratchA[:0], flows...)
	spare := f.scratchB[:0]
	for len(unfrozen) > 0 {
		share := math.Inf(1)
		for _, l := range links {
			if l.load > 0 {
				if s := l.capLeft / l.load; s < share {
					share = s
				}
			}
		}
		// Flow caps tighter than the link share bind first: freeze those
		// flows at their cap and refill the slack they leave behind.
		next := spare[:0]
		for _, fl := range unfrozen {
			if fl.capRate > 0 && fl.capRate <= share {
				freeze(fl, fl.capRate)
			} else {
				next = append(next, fl)
			}
		}
		if len(next) < len(unfrozen) {
			unfrozen, spare = next, unfrozen[:0]
			continue
		}
		spare = next[:0] // keep the buffer the cap pass grew
		// No cap binds: the bottleneck link(s) do. Freeze every flow
		// crossing a link at the bottleneck share. Freezing one such flow
		// leaves the bottleneck's ratio at exactly the share, so a single
		// pass with a drift tolerance freezes the whole binding set.
		keep := spare[:0]
		for _, fl := range unfrozen {
			binding := false
			for i := range fl.cross {
				l := fl.cross[i].link
				if l.load > 0 && l.capLeft/l.load <= share*bindTol {
					binding = true
					break
				}
			}
			if binding {
				freeze(fl, share)
			} else {
				keep = append(keep, fl)
			}
		}
		if len(keep) == len(unfrozen) {
			// Defensive: float drift hid the binding set; freeze the rest
			// at the computed share rather than looping forever.
			for _, fl := range keep {
				freeze(fl, share)
			}
			keep = keep[:0]
		}
		unfrozen, spare = keep, unfrozen[:0]
	}
	f.scratchA, f.scratchB = unfrozen[:0], spare[:0]
}

// bindTol is the drift tolerance of solve's binding pass.
const bindTol = 1 + 1e-9

// rearm schedules the fabric's single completion timer for the
// earliest-finishing flow. The previous timer is canceled (feeding the
// clock's heap compaction); generation counters still invalidate timers
// a best-effort cancel missed. When every flow holds one rate r (the
// uniform flag solveHub sets) the smallest remaining is divided once:
// division by a positive r is monotonic, so min(rem)/r is bit for bit
// min(rem/r).
func (f *Fabric) rearm() {
	f.gen++
	if f.cancelTimer != nil {
		f.clock.CancelCallback(f.cancelTimer)
		f.cancelTimer = nil
	}
	earliest := math.Inf(1)
	if f.uniform {
		var first *Flow
		for _, fl := range f.flows {
			if fl.remaining > 0 && (first == nil || fl.remaining < first.remaining) {
				first = fl
			}
		}
		if first != nil {
			earliest = first.remaining / first.rate
		}
	} else {
		for _, fl := range f.flows {
			if fl.remaining <= 0 {
				continue // drained stream awaiting the instant-end pause
			}
			if t := fl.remaining / fl.rate; t < earliest {
				earliest = t
			}
		}
	}
	if math.IsInf(earliest, 1) {
		return
	}
	// +1ns guarantees forward progress when float rounding makes the
	// computed horizon vanish.
	if f.timerFn == nil {
		f.timerFn = f.onTimer
	}
	f.timerAt = f.clock.Now() + simtime.Duration(earliest*1e9) + 1
	f.cancelTimer = f.clock.CallbackArg(f.timerAt, f.timerFn, f.gen)
}

// fastRearm re-arms the completion timer after a same-instant stream
// re-extension. No rate changed, so every other flow's horizon is
// exactly what the armed timer already covers; the new earliest is the
// minimum of the armed deadline and this flow's own — an O(1) update
// instead of rearm's scan over every active flow. (Duration conversion
// is monotonic, so taking the minimum after converting each horizon
// matches rearm's convert-after-min bit for bit.)
func (f *Fabric) fastRearm(fl *Flow) {
	if fl.rate <= 0 {
		return // no horizon of its own; the armed timer still stands
	}
	at := f.clock.Now() + simtime.Duration(fl.remaining/fl.rate*1e9) + 1
	if f.cancelTimer != nil && f.timerAt <= at {
		return
	}
	f.gen++
	if f.cancelTimer != nil {
		f.clock.CancelCallback(f.cancelTimer)
	}
	if f.timerFn == nil {
		f.timerFn = f.onTimer
	}
	f.timerAt = at
	f.cancelTimer = f.clock.CallbackArg(at, f.timerFn, f.gen)
}

// onTimer fires at a completion instant: settle, release every finished
// flow (crediting its residual sub-epsilon bytes so per-link accounting
// conserves bytes exactly), recompute what changed, re-arm. Drained
// streams are signaled but stay in the allocation until the instant
// ends: if the owner extends them again at this instant (the
// back-to-back small-file case) nothing recomputes at all; otherwise
// the instant-end finalize pauses them before any time passes.
func (f *Fabric) onTimer(gen uint64) {
	if gen != f.gen {
		return // stale: membership or rates changed since it was armed
	}
	f.cancelTimer = nil
	f.settle()
	f.seedLinks = f.seedLinks[:0]
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.draining || fl.remaining > completionEps {
			live = append(live, fl)
			continue
		}
		for i := range fl.cross {
			l := fl.cross[i].link
			l.bytes += fl.remaining * float64(fl.cross[i].k)
			l.active--
		}
		fl.remaining = 0
		f.ctrFlowsCompleted.Inc()
		if fl.persistent {
			fl.draining = true
			f.drainQ = append(f.drainQ, fl)
			if !f.finalizePending {
				f.finalizePending = true
				if f.finalizeFn == nil {
					f.finalizeFn = f.finalizeStreams
				}
				f.clock.AtInstantEnd(f.finalizeFn)
			}
			fl.waitGate.Signal()
			live = append(live, fl)
			continue
		}
		fl.done = true
		f.unlink(fl)
		for i := range fl.cross {
			f.seedLinks = append(f.seedLinks, fl.cross[i].link)
		}
		fl.waitGate.Signal()
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
	if len(f.seedLinks) > 0 {
		f.recomputeLinks(f.seedLinks)
	}
	f.rearm()
}

// finalizeStreams runs at the end of the instant a stream drained in:
// any stream still idle leaves the allocation now, before virtual time
// advances, so the shares it was holding are redistributed with zero
// elapsed time at the interim rates — byte-for-byte what removing it at
// drain time would have produced, minus the recompute churn.
func (f *Fabric) finalizeStreams() {
	f.finalizePending = false
	f.seedLinks = f.seedLinks[:0]
	changed := false
	for _, fl := range f.drainQ {
		if !fl.draining {
			continue // re-extended before the instant ended
		}
		fl.draining = false
		f.unlink(fl)
		for i := range fl.cross {
			f.seedLinks = append(f.seedLinks, fl.cross[i].link)
		}
		changed = true
	}
	for i := range f.drainQ {
		f.drainQ[i] = nil
	}
	f.drainQ = f.drainQ[:0]
	if !changed {
		return
	}
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.inFlows {
			live = append(live, fl)
		}
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
	f.recomputeLinks(f.seedLinks)
	f.rearm()
}
