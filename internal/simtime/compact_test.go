package simtime

import (
	"testing"
	"time"
)

// TestHeapCompactionBoundsChurn models the fabric's cancel-and-rearm
// pattern at scale: one long-lived timer per "flow" that is canceled
// and rescheduled on every event. Without compaction the event heap
// would accumulate one dead entry per rearm — hundreds of thousands
// over a campaign. The heap must stay bounded by live timers, not by
// cancellation history.
func TestHeapCompactionBoundsChurn(t *testing.T) {
	const live = 50     // concurrent "flows", each with one live timer
	const rearms = 2000 // rearms per flow over the run

	c := NewClock()
	peak := 0
	c.Go(func() {
		cancels := make([]func(), live)
		for i := 0; i < rearms; i++ {
			for j := 0; j < live; j++ {
				if cancels[j] != nil {
					cancels[j]()
				}
				cancels[j] = c.At(c.Now()+Duration(j+1)*time.Hour, func() {})
			}
			c.Sleep(time.Millisecond)
			if n := c.pendingEvents(); n > peak {
				peak = n
			}
		}
		for _, cancel := range cancels {
			cancel()
		}
	})
	c.RunFor()

	// live timers + the churn actor's own sleep + compaction hysteresis:
	// canceled entries may linger until they outnumber live ones, so the
	// bound is a small multiple of live work — far below the ~100k dead
	// entries an unbounded heap would hold.
	if limit := 4*live + 64; peak > limit {
		t.Errorf("event heap peaked at %d entries with %d live timers (want <= %d)", peak, live, limit)
	}
}

// TestCancelCallbackCompacts exercises the same bound through the
// allocation-free CallbackArg/CancelCallback pair the fabric actually
// uses.
func TestCancelCallbackCompacts(t *testing.T) {
	c := NewClock()
	peak := 0
	c.Go(func() {
		fn := func(uint64) {}
		var handle *bool
		for i := 0; i < 100_000; i++ {
			if handle != nil {
				c.CancelCallback(handle)
			}
			handle = c.CallbackArg(c.Now()+time.Hour, fn, uint64(i))
			if i%1000 == 0 {
				if n := c.pendingEvents(); n > peak {
					peak = n
				}
			}
		}
		c.CancelCallback(handle)
	})
	c.RunFor()
	if peak > 256 {
		t.Errorf("event heap peaked at %d entries with 1 live timer", peak)
	}
}

// TestAtInstantEnd pins the contract of AtInstantEnd: the callback runs
// after every actor and pending event at the current instant has
// drained, before virtual time advances — and if it schedules more
// work at the same instant, the instant re-opens and queued instant-end
// callbacks run again afterwards.
func TestAtInstantEnd(t *testing.T) {
	c := NewClock()
	var order []string
	c.Go(func() {
		c.AtInstantEnd(func() { order = append(order, "end-1") })
		c.Go(func() { order = append(order, "actor-b") })
		c.Callback(c.Now(), func() { order = append(order, "callback") })
		order = append(order, "actor-a")
		c.Sleep(time.Second)
		order = append(order, "after-advance")
	})
	c.RunFor()
	want := []string{"actor-a", "actor-b", "callback", "end-1", "after-advance"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtInstantEndReopens checks the re-entrancy half of the contract:
// an instant-end callback that schedules same-instant work re-opens the
// instant, and instant-end callbacks queued during that work run once
// it drains again — all before time advances.
func TestAtInstantEndReopens(t *testing.T) {
	c := NewClock()
	var order []string
	var tick Duration
	c.Go(func() {
		c.AtInstantEnd(func() {
			order = append(order, "end-1")
			c.Callback(c.Now(), func() {
				order = append(order, "reopened")
				c.AtInstantEnd(func() { order = append(order, "end-2") })
			})
		})
		c.Sleep(time.Second)
		tick = c.Now()
	})
	c.RunFor()
	want := []string{"end-1", "reopened", "end-2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if tick != time.Second {
		t.Errorf("actor resumed at %v, want 1s", tick)
	}
}

// pendingEvents reports the heap size (canceled events included), for
// tests asserting compaction keeps it bounded.
func (c *Clock) pendingEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
