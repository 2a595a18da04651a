package simtime

import (
	"testing"
	"time"
)

func TestResourceSerializesAtCapacity(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 1)
	var finish []Duration
	for i := 0; i < 3; i++ {
		c.Go(func() {
			r.Acquire(1)
			c.Sleep(10 * time.Second)
			r.Release(1)
			finish = append(finish, c.Now())
		})
	}
	end := c.RunFor()
	if end != 30*time.Second {
		t.Errorf("end = %v, want 30s (capacity 1 serializes)", end)
	}
	if len(finish) != 3 {
		t.Fatalf("finished %d, want 3", len(finish))
	}
	for i, f := range finish {
		want := time.Duration(i+1) * 10 * time.Second
		if f != want {
			t.Errorf("finish[%d] = %v, want %v", i, f, want)
		}
	}
}

func TestResourceParallelWithinCapacity(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 3)
	for i := 0; i < 3; i++ {
		c.Go(func() {
			r.Acquire(1)
			c.Sleep(10 * time.Second)
			r.Release(1)
		})
	}
	if end := c.RunFor(); end != 10*time.Second {
		t.Errorf("end = %v, want 10s (all three run in parallel)", end)
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 2)
	var order []string
	// big arrives first wanting 2 units while 1 is held; small arrives
	// later wanting 1. Strict FIFO means small must wait behind big.
	c.Go(func() {
		r.Acquire(1)
		c.Sleep(10 * time.Second)
		r.Release(1)
	})
	c.Go(func() {
		c.Sleep(time.Second)
		r.Acquire(2)
		order = append(order, "big")
		r.Release(2)
	})
	c.Go(func() {
		c.Sleep(2 * time.Second)
		r.Acquire(1)
		order = append(order, "small")
		r.Release(1)
	})
	c.RunFor()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("order = %v, want [big small]", order)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 1)
	var got, gotWhileHeld bool
	c.Go(func() {
		got = r.TryAcquire(1)
		gotWhileHeld = r.TryAcquire(1)
		r.Release(1)
	})
	c.RunFor()
	if !got {
		t.Error("first TryAcquire failed on idle resource")
	}
	if gotWhileHeld {
		t.Error("second TryAcquire succeeded past capacity")
	}
}

func TestResourceReleaseTooMuchPanics(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Release(1)
}

func TestQueuePushPopFIFO(t *testing.T) {
	c := NewClock()
	q := NewQueue(c)
	var got []int
	c.Go(func() {
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
		q.Close()
	})
	c.Go(func() {
		for {
			v, ok := q.Pop()
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	c.RunFor()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d, want %d (FIFO order)", i, v, i)
		}
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	c := NewClock()
	q := NewQueue(c)
	var popped Duration
	c.Go(func() {
		v, ok := q.Pop()
		if !ok || v.(string) != "x" {
			t.Errorf("Pop = %v, %v", v, ok)
		}
		popped = c.Now()
	})
	c.Go(func() {
		c.Sleep(7 * time.Second)
		q.Push("x")
	})
	c.RunFor()
	if popped != 7*time.Second {
		t.Errorf("popped at %v, want 7s", popped)
	}
}

func TestQueueCloseWakesAll(t *testing.T) {
	c := NewClock()
	q := NewQueue(c)
	woken := 0
	for i := 0; i < 4; i++ {
		c.Go(func() {
			if _, ok := q.Pop(); !ok {
				woken++
			}
		})
	}
	c.Go(func() {
		c.Sleep(time.Second)
		q.Close()
	})
	c.RunFor()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
}

func TestQueueLen(t *testing.T) {
	c := NewClock()
	q := NewQueue(c)
	c.Go(func() {
		q.Push(1)
		q.Push(2)
		if q.Len() != 2 {
			t.Errorf("Len = %d, want 2", q.Len())
		}
	})
	c.RunFor()
}

func TestWaitGroupBlocksUntilDone(t *testing.T) {
	c := NewClock()
	wg := NewWaitGroup(c)
	wg.Add(3)
	var waited Duration
	for i := 1; i <= 3; i++ {
		i := i
		c.Go(func() {
			c.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	c.Go(func() {
		wg.Wait()
		waited = c.Now()
	})
	c.RunFor()
	if waited != 3*time.Second {
		t.Errorf("Wait returned at %v, want 3s", waited)
	}
}

func TestWaitGroupZeroWaitImmediate(t *testing.T) {
	c := NewClock()
	wg := NewWaitGroup(c)
	done := false
	c.Go(func() {
		wg.Wait()
		done = true
	})
	c.RunFor()
	if !done {
		t.Error("Wait on zero counter did not return")
	}
}

func TestResourceSetCapRaiseAdmitsWaiters(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 1)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		c.Go(func() {
			r.Acquire(1)
			got = append(got, i)
			c.Sleep(10 * time.Second)
			r.Release(1)
		})
	}
	c.Go(func() {
		c.Sleep(time.Second)
		r.SetCap(3) // admit the two queued waiters at t=1s
	})
	end := c.RunFor()
	if len(got) != 3 {
		t.Fatalf("admitted %d, want 3", len(got))
	}
	// Holder 0 runs 0..10s; 1 and 2 run 1..11s after the raise.
	if end != 11*time.Second {
		t.Errorf("end = %v, want 11s", end)
	}
}

func TestResourceSetCapLowerDrains(t *testing.T) {
	c := NewClock()
	r := NewResource(c, 2)
	var starts []Duration
	for i := 0; i < 3; i++ {
		c.Go(func() {
			r.Acquire(1)
			starts = append(starts, c.Now())
			c.Sleep(10 * time.Second)
			r.Release(1)
		})
	}
	c.Go(func() {
		c.Sleep(time.Second)
		r.SetCap(1) // both holders keep their units; waiter blocks until BOTH release
	})
	c.RunFor()
	if len(starts) != 3 {
		t.Fatalf("started %d, want 3", len(starts))
	}
	// Third acquisition must wait for inUse (2) to drain below the new
	// cap (1): both initial holders release at t=10s.
	if starts[2] != 10*time.Second {
		t.Errorf("third start = %v, want 10s", starts[2])
	}
	if r.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", r.Cap())
	}
}

func TestMailboxTypedFIFO(t *testing.T) {
	type msg struct{ from, seq int }
	c := NewClock()
	m := NewMailbox[msg](c)
	var got []msg
	c.Go(func() {
		for {
			v, ok := m.Pop() // a msg, no type assertion
			if !ok {
				if v != (msg{}) {
					t.Errorf("Pop on a closed, drained mailbox = %+v, want the zero msg", v)
				}
				return
			}
			got = append(got, v)
		}
	})
	c.Go(func() {
		for i := 0; i < 4; i++ {
			c.Sleep(time.Second)
			m.Push(msg{from: i % 2, seq: i})
		}
		m.Close()
	})
	c.RunFor()
	if len(got) != 4 {
		t.Fatalf("got %d messages, want 4", len(got))
	}
	for i, v := range got {
		if v.seq != i || v.from != i%2 {
			t.Errorf("got[%d] = %+v, want seq %d from %d", i, v, i, i%2)
		}
	}
}

// A closed mailbox still hands out what was queued before Close, in
// order, and only then reports ok=false — for the Queue alias too.
func TestMailboxDrainsThenReportsClosed(t *testing.T) {
	c := NewClock()
	typed := NewMailbox[*int](c)
	var q *Queue = NewMailbox[any](c) // Queue is Mailbox[any]
	vals := []int{1, 2, 3}
	c.Go(func() {
		for i := range vals {
			typed.Push(&vals[i])
			q.Push(vals[i])
		}
		typed.Close()
		q.Close()
		typed.Close() // closing twice is a no-op
		for i := range vals {
			p, ok := typed.Pop()
			if !ok || p != &vals[i] {
				t.Errorf("typed Pop %d = %v, %v; want &vals[%d], true", i, p, ok, i)
			}
			v, ok := q.Pop()
			if !ok || v.(int) != vals[i] {
				t.Errorf("Queue Pop %d = %v, %v; want %d, true", i, v, ok, vals[i])
			}
		}
		if p, ok := typed.Pop(); ok || p != nil {
			t.Errorf("typed Pop after drain = %v, %v; want nil, false", p, ok)
		}
		if v, ok := q.Pop(); ok || v != nil {
			t.Errorf("Queue Pop after drain = %v, %v; want nil, false", v, ok)
		}
	})
	c.RunFor()
}

// A typed mailbox stores its values in the FIFO's array: once that has
// grown, a Push and Pop of a pointer allocate nothing.
func TestMailboxPushPopAllocs(t *testing.T) {
	c := NewClock()
	m := NewMailbox[*int](c)
	x := 7
	c.Go(func() {
		allocs := testing.AllocsPerRun(100, func() {
			m.Push(&x)
			if p, ok := m.Pop(); !ok || p != &x {
				t.Fatalf("Pop = %v, %v", p, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("Push+Pop allocates %v times, want 0", allocs)
		}
	})
	c.RunFor()
}
