package simtime

import "time"

// paceSlice bounds one real-time pacing nap. Sleeping in short slices
// (lock dropped) keeps the scheduler responsive to externally injected
// work — an observability scrape lands as a Callback at the current
// instant and is served within one slice instead of waiting out the
// whole gap to the next simulation event.
const paceSlice = 5 * time.Millisecond

// SetPace couples virtual time to the wall clock: the scheduler
// advances at most ratio virtual seconds per real second (e.g. 2000
// means one simulated hour plays out in 1.8 real seconds). A ratio of
// zero (the default) removes the throttle entirely — the simulation
// free-runs and nothing in the event order or final virtual time
// changes either way; pacing only inserts real-time waits between
// instants.
//
// The budget is anchored at the call: if the simulation later falls
// behind (a heavy instant burns more real time than its virtual span
// allows), it catches up at full speed rather than slowing further.
// SetPace is safe to call from any goroutine, before or during Run.
func (c *Clock) SetPace(ratio float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paceRatio = ratio
	if ratio > 0 {
		c.paceAnchorVirt = c.now
		c.paceAnchorReal = time.Now()
	}
}

// paceWaitLocked naps toward the real-time budget for advancing to
// virtual time target. It returns true if it slept (the caller must
// re-evaluate the world: new events may have been injected while the
// lock was dropped) and false when the budget is already spent and the
// scheduler may advance immediately. The caller must hold c.mu.
func (c *Clock) paceWaitLocked(target Duration) bool {
	need := time.Duration(float64(target-c.paceAnchorVirt) / c.paceRatio)
	wait := need - time.Since(c.paceAnchorReal)
	if wait <= 0 {
		return false
	}
	if wait > paceSlice {
		wait = paceSlice
	}
	c.mu.Unlock()
	time.Sleep(wait)
	c.mu.Lock()
	return true
}
