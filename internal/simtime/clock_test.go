package simtime

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestClockSleepAdvancesVirtualTime(t *testing.T) {
	c := NewClock()
	var observed Duration
	c.Go(func() {
		c.Sleep(5 * time.Second)
		observed = c.Now()
	})
	end, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if observed != 5*time.Second {
		t.Errorf("observed %v, want 5s", observed)
	}
	if end != 5*time.Second {
		t.Errorf("end %v, want 5s", end)
	}
}

func TestClockRunsInstantlyInRealTime(t *testing.T) {
	c := NewClock()
	c.Go(func() {
		c.Sleep(1000 * time.Hour) // a virtual month and a half
	})
	start := time.Now()
	c.RunFor()
	if real := time.Since(start); real > 2*time.Second {
		t.Errorf("simulating 1000 virtual hours took %v of real time", real)
	}
}

func TestClockMultipleActorsInterleave(t *testing.T) {
	c := NewClock()
	var order []string
	c.Go(func() {
		c.Sleep(2 * time.Second)
		order = append(order, "b")
	})
	c.Go(func() {
		c.Sleep(1 * time.Second)
		order = append(order, "a")
		c.Sleep(2 * time.Second)
		order = append(order, "c")
	})
	c.RunFor()
	want := []string{"a", "b", "c"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestClockSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Go(func() {
			c.Sleep(time.Second)
			order = append(order, i)
		})
	}
	c.RunFor()
	if len(order) != 10 {
		t.Fatalf("got %d wakeups, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Errorf("wakeup %d was actor %d; same-instant events must be FIFO", i, v)
		}
	}
}

func TestClockZeroSleepYields(t *testing.T) {
	c := NewClock()
	n := 0
	c.Go(func() {
		for i := 0; i < 100; i++ {
			c.Sleep(0)
			n++
		}
	})
	end := c.RunFor()
	if n != 100 {
		t.Errorf("n = %d, want 100", n)
	}
	if end != 0 {
		t.Errorf("zero sleeps advanced time to %v", end)
	}
}

func TestClockDeadlockDetected(t *testing.T) {
	c := NewClock()
	q := NewQueue(c)
	c.Go(func() {
		q.Pop() // nobody will ever push
	})
	_, err := c.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestClockRunTwiceFails(t *testing.T) {
	c := NewClock()
	c.RunFor()
	if _, err := c.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestClockAtFiresAtTime(t *testing.T) {
	c := NewClock()
	var fired Duration = -1
	c.At(3*time.Second, func() {
		fired = c.Now()
	})
	c.RunFor()
	if fired != 3*time.Second {
		t.Errorf("fired at %v, want 3s", fired)
	}
}

func TestClockAtCancel(t *testing.T) {
	c := NewClock()
	var count int32
	cancel := c.At(3*time.Second, func() {
		atomic.AddInt32(&count, 1)
	})
	cancel()
	c.RunFor()
	if atomic.LoadInt32(&count) != 0 {
		t.Error("canceled callback fired")
	}
}

func TestClockAfterRelative(t *testing.T) {
	c := NewClock()
	var fired Duration
	c.Go(func() {
		c.Sleep(2 * time.Second)
		c.At(c.Now()+3*time.Second, func() {
			fired = c.Now()
		})
	})
	c.RunFor()
	if fired != 5*time.Second {
		t.Errorf("fired at %v, want 5s", fired)
	}
}

func TestClockNestedSpawn(t *testing.T) {
	c := NewClock()
	depth := 0
	var spawn func(d int)
	spawn = func(d int) {
		c.Sleep(time.Second)
		depth = d
		if d < 5 {
			c.Go(func() { spawn(d + 1) })
		}
	}
	c.Go(func() { spawn(1) })
	end := c.RunFor()
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if end != 5*time.Second {
		t.Errorf("end = %v, want 5s", end)
	}
}

func TestClockNegativeSleepClamped(t *testing.T) {
	c := NewClock()
	c.Go(func() { c.Sleep(-time.Hour) })
	if end := c.RunFor(); end != 0 {
		t.Errorf("negative sleep advanced time to %v", end)
	}
}

// A Sleep whose wake-up would be the next event popped is dispatched in
// place (Clock.wakeIsNextLocked). Each test below pins one case the
// shortcut must refuse, or one count it must keep, and fails if that
// guard is deleted.

func TestSleepShortcutRunsInstantEndFirst(t *testing.T) {
	c := NewClock()
	var at Duration = -1
	c.Go(func() {
		c.AtInstantEnd(func() { at = c.Now() })
		c.Sleep(5 * time.Second)
	})
	c.RunFor()
	if at != 0 {
		t.Errorf("instant-end callback ran at %v, want 0: it must run before time advances", at)
	}
}

func TestSleepShortcutStopsAtLimit(t *testing.T) {
	c := NewClock()
	c.Go(func() {
		c.Sleep(4 * time.Second)
		c.Sleep(6 * time.Second)
		c.Sleep(time.Second)
	})
	if next := c.stepUntil(10 * time.Second); next != 10*time.Second {
		t.Errorf("stepUntil(10s) returned next event %v, want 10s", next)
	}
	if now := c.Now(); now != 4*time.Second {
		t.Errorf("Now() = %v after stepUntil(10s), want 4s: a wake-up at the limit must stay queued", now)
	}
	c.stepUntil(maxDuration)
	if now := c.Now(); now != 11*time.Second {
		t.Errorf("Now() = %v after the last slice, want 11s", now)
	}
}

func TestSleepShortcutYieldsToEventAtWakeInstant(t *testing.T) {
	c := NewClock()
	var order []string
	c.Callback(5*time.Second, func() { order = append(order, "callback") })
	c.Go(func() {
		c.Sleep(5 * time.Second)
		order = append(order, "sleeper")
	})
	c.RunFor()
	if len(order) != 2 || order[0] != "callback" || order[1] != "sleeper" {
		t.Errorf("order = %v, want [callback sleeper]: the queued event holds the smaller seq", order)
	}
}

func TestSleepShortcutCountsEvents(t *testing.T) {
	c := NewClock()
	const sleeps = 50
	c.Go(func() {
		for i := 0; i < sleeps; i++ {
			c.Sleep(time.Duration(i%3) * time.Second)
		}
	})
	c.RunFor()
	if got, want := c.EventsProcessed(), uint64(1+sleeps); got != want {
		t.Errorf("EventsProcessed = %d, want %d (one spawn plus one per Sleep)", got, want)
	}
}
