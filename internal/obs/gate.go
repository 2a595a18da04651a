package obs

import (
	"sync"

	"repro/internal/simtime"
)

// The registry, the flight ring, and every subsystem the func-collected
// series read are mutated exclusively from simulation-actor context —
// the clock's single-actor execution serializes them with no locking
// (see the telemetry package doc). An HTTP handler runs on its own OS
// goroutine, so it must not touch any of that directly. The Gate is the
// bridge: while the simulation runs, it injects the read (or operator
// action) as an inline scheduler callback at the current virtual
// instant — executed on the scheduler goroutine, serialized with every
// actor, with happens-before edges through the clock's own mutex — and
// blocks the handler until it has run. Pacing (Clock.SetPace) bounds
// how long that takes: the scheduler re-checks its queue every pacing
// slice, so a scrape lands within a few milliseconds of real time even
// mid-way through a long virtual gap.
//
// After the run ends no actor exists anymore; Settle flips the gate to
// run functions directly on the caller, serialized by a plain mutex.

// Gate executes functions in simulation context (live) or inline
// (settled).
type Gate struct {
	clock *simtime.Clock
	mu    sync.Mutex // serializes direct execution after Settle
	done  chan struct{}
	once  sync.Once
}

// newGate builds a gate over the clock. Call settle once clock.Run has
// returned.
func newGate(clock *simtime.Clock) *Gate {
	return &Gate{clock: clock, done: make(chan struct{})}
}

// settle marks the simulation finished: Do now runs functions directly
// (no actors exist to race with). Must be called only after clock.Run
// has returned; safe to call more than once.
func (g *Gate) settle() { g.once.Do(func() { close(g.done) }) }

// settled reports whether the simulation has finished.
func (g *Gate) settled() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Do runs fn in simulation context and returns after it has executed
// exactly once. Live: fn is injected as a scheduler callback at the
// current virtual instant (fn must follow the Callback contract —
// never park). Settled: fn runs on the calling goroutine under the
// gate's mutex.
func (g *Gate) Do(fn func()) {
	ran := make(chan struct{})
	g.clock.Callback(g.clock.Now(), func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
	case <-g.done:
		// The scheduler exited. If it drained our callback on its way
		// out we are done; otherwise the callback is orphaned in the
		// queue and fn runs here — no actor exists to race with, and
		// g.mu serializes concurrent settled handlers.
		select {
		case <-ran:
		default:
			g.mu.Lock()
			fn()
			g.mu.Unlock()
		}
	}
}
