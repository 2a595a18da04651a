//go:build go1.23

// Everything that names iter is in this file: the tag raises its language
// version alone, so go.mod stays at the go 1.22 that bench/go.mod pins.

package simtime

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// actor is one coroutine. The scheduler resumes it with next; a blocking
// primitive hands control back with yield. Both are direct
// goroutine-to-goroutine switches: the resumed side runs on the
// scheduler's thread at once, with no run-queue entry and no thread
// wake-up.
type actor struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	fn    func() // the body being run; nil once it has returned
}

// spawnLocked runs fn on a coroutine from the idle pool, creating one
// when the pool is empty. The caller must hold c.mu.
func (c *Clock) spawnLocked(fn func()) {
	var a *actor
	if n := len(c.idle); n > 0 {
		a, c.idle[n-1] = c.idle[n-1], nil
		c.idle = c.idle[:n-1]
	} else {
		a = &actor{}
		a.next, a.stop = iter.Pull(a.bodies)
		c.coros++
	}
	a.fn = fn
	c.actors++
	c.resumeLocked(a)
}

// bodies is the coroutine: it runs one actor body after another, parked
// in the idle pool between them, until stop makes yield report false. A
// panic leaves with the actor's stack in its message: next re-raises it
// on the scheduler's goroutine, whose traceback shows only the loop.
func (a *actor) bodies(yield func(struct{}) bool) {
	a.yield = yield
	defer func() {
		if p := recover(); p != nil {
			panic(fmt.Errorf("%v [in a simtime actor]\n\n%s", p, debug.Stack()))
		}
	}()
	for {
		a.fn()
		a.fn = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// resumeLocked switches to a and returns when it next blocks or its body
// returns; a finished actor goes to the idle pool. A panic in the body
// unwinds out of next, so it reaches whoever called Run — with c.mu
// released, as it is while any actor runs. The caller must hold c.mu.
func (c *Clock) resumeLocked(a *actor) {
	c.cur = a
	c.mu.Unlock()
	a.next()
	c.mu.Lock()
	c.cur = nil
	if a.fn == nil {
		c.actors--
		c.idle = append(c.idle, a)
	}
}

// drainIdle ends the pooled coroutines, so none outlives the clock's
// driver. Actors still parked mid-body (a deadlock Run reports) are
// left as they are, as their goroutines always were.
func (c *Clock) drainIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, a := range idle {
		a.stop()
	}
}
