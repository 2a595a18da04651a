package mpi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestSendRecvBasic(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	var got Message
	comm.Start(0, func() {
		comm.Send(0, 1, 7, "hello")
	})
	comm.Start(1, func() {
		m, ok := comm.Recv(1, Any, Any)
		if !ok {
			t.Error("Recv failed")
		}
		got = m
	})
	c.Go(comm.Wait)
	c.RunFor()
	if got.From != 0 || got.Tag != 7 || got.Data.(string) != "hello" {
		t.Errorf("got %+v", got)
	}
}

func TestRecvBlocksInVirtualTime(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	var at time.Duration
	comm.Start(1, func() {
		comm.Recv(1, Any, Any)
		at = c.Now()
	})
	comm.Start(0, func() {
		c.Sleep(5 * time.Second)
		comm.Send(0, 1, 0, nil)
	})
	c.Go(comm.Wait)
	c.RunFor()
	if at != 5*time.Second {
		t.Errorf("received at %v, want 5s", at)
	}
}

func TestTagMatchingHoldsAside(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	var order []int
	comm.Start(0, func() {
		comm.Send(0, 1, 1, "low")
		comm.Send(0, 1, 2, "high")
	})
	comm.Start(1, func() {
		// Receive tag 2 first even though tag 1 arrived first.
		m, _ := comm.Recv(1, Any, 2)
		order = append(order, m.Tag)
		m, _ = comm.Recv(1, Any, 1)
		order = append(order, m.Tag)
	})
	c.Go(comm.Wait)
	c.RunFor()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("order = %v, want [2 1]", order)
	}
}

func TestSourceMatching(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 3)
	var from int
	comm.Start(0, func() { comm.Send(0, 2, 0, nil) })
	comm.Start(1, func() { comm.Send(1, 2, 0, nil) })
	comm.Start(2, func() {
		m, _ := comm.Recv(2, 1, Any) // only from rank 1
		from = m.From
		comm.Recv(2, 0, Any)
	})
	c.Go(comm.Wait)
	c.RunFor()
	if from != 1 {
		t.Errorf("from = %d, want 1", from)
	}
}

func TestPairwiseOrderPreserved(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	var got []int
	comm.Start(0, func() {
		for i := 0; i < 10; i++ {
			comm.Send(0, 1, 0, i)
		}
	})
	comm.Start(1, func() {
		for i := 0; i < 10; i++ {
			m, _ := comm.Recv(1, 0, 0)
			got = append(got, m.Data.(int))
		}
	})
	c.Go(comm.Wait)
	c.RunFor()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestCloseDrainsThenFails(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	var results []bool
	comm.Start(0, func() {
		comm.Send(0, 1, 0, "queued")
		comm.Close(1)
	})
	comm.Start(1, func() {
		_, ok1 := comm.Recv(1, Any, Any)
		_, ok2 := comm.Recv(1, Any, Any)
		results = append(results, ok1, ok2)
	})
	c.Go(comm.Wait)
	c.RunFor()
	if len(results) != 2 || !results[0] || results[1] {
		t.Errorf("results = %v, want [true false]", results)
	}
}

func TestSendToClosedDropped(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	comm.Start(0, func() {
		comm.Close(1)
		comm.Send(0, 1, 0, "lost") // must not panic
	})
	c.Go(comm.Wait)
	c.RunFor()
}

func TestManyWorkersManagerPattern(t *testing.T) {
	// The PFTool shape: workers request jobs, the manager hands out
	// work until exhausted, then closes everyone.
	const workers = 8
	const jobs = 100
	c := simtime.NewClock()
	comm := New(c, 1+workers)
	const (
		tagRequest = iota
		tagJob
	)
	completed := 0
	comm.Start(0, func() {
		next := 0
		for completed < jobs {
			m, ok := comm.Recv(0, Any, tagRequest)
			if !ok {
				return
			}
			if m.Data != nil {
				completed++
			}
			if next < jobs {
				comm.Send(0, m.From, tagJob, next)
				next++
			}
		}
		comm.CloseAll()
	})
	for w := 1; w <= workers; w++ {
		w := w
		comm.Start(w, func() {
			comm.Send(w, 0, tagRequest, nil) // initial request
			for {
				m, ok := comm.Recv(w, 0, tagJob)
				if !ok {
					return
				}
				c.Sleep(time.Millisecond) // do the job
				comm.Send(w, 0, tagRequest, m.Data)
			}
		})
	}
	c.Go(comm.Wait)
	c.RunFor()
	if completed != jobs {
		t.Errorf("completed = %d, want %d", completed, jobs)
	}
}

func TestRankRangePanics(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	comm.Send(0, 5, 0, nil)
}

// TestRankDeathSemantics pins the documented behavior around a single
// rank dying mid-run (its mailbox closed while peers keep going):
// messages already in flight still drain, further sends to the dead
// rank drop silently but count as traffic, the dead rank's body sees
// ok=false once drained, and live ranks are unaffected.
func TestRankDeathSemantics(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 3)
	var drained []int
	var after Message
	var afterOK bool
	comm.Start(1, func() {
		for {
			m, ok := comm.Recv(1, Any, Any)
			if !ok {
				return // the rank is dead and its backlog is drained
			}
			drained = append(drained, m.Data.(int))
		}
	})
	comm.Start(0, func() {
		comm.Send(0, 1, 0, 10)
		comm.Send(0, 1, 0, 11)
		comm.Close(1) // rank 1's machine dies
		if !comm.closed[1] {
			t.Error("Closed(1) = false after Close")
		}
		before := comm.Sent()
		comm.Send(0, 1, 0, 12) // dropped, but still counted as traffic
		if comm.Sent() != before+1 {
			t.Error("send to dead rank not counted")
		}
		comm.Send(0, 2, 0, 99) // live ranks are unaffected
	})
	comm.Start(2, func() {
		after, afterOK = comm.Recv(2, 0, Any)
	})
	c.Go(comm.Wait)
	c.RunFor()
	if len(drained) != 2 || drained[0] != 10 || drained[1] != 11 {
		t.Errorf("drained = %v, want [10 11] (in-flight messages survive death)", drained)
	}
	if !afterOK || after.Data.(int) != 99 {
		t.Errorf("live rank recv = %+v ok=%v", after, afterOK)
	}
	if comm.closed[0] || comm.closed[2] {
		t.Error("live ranks reported closed")
	}
}

// TestCloseIsIdempotent: declaring the same rank dead twice (e.g. two
// watchdog ticks racing a shutdown broadcast) is harmless.
func TestCloseIsIdempotent(t *testing.T) {
	c := simtime.NewClock()
	comm := New(c, 2)
	comm.Start(0, func() {
		comm.Close(1)
		comm.Close(1)
		comm.CloseAll()
	})
	comm.Start(1, func() {
		if _, ok := comm.Recv(1, Any, Any); ok {
			t.Error("recv on dead rank succeeded")
		}
	})
	c.Go(comm.Wait)
	c.RunFor()
}

// pingPong runs rounds of a Send+Recv each way between ranks 0 and 1,
// the payload a pointer both sides share, and calls measure from rank 0
// around the rounds after the first (which grows the mailboxes' arrays).
func pingPong(c *simtime.Clock, comm *Comm, rounds int, measure func(run func())) {
	var payload struct{ seq int }
	comm.Start(1, func() {
		for {
			m, ok := comm.Recv(1, 0, 1)
			if !ok {
				return
			}
			comm.Send(1, 0, 2, m.Data)
		}
	})
	comm.Start(0, func() {
		round := func() {
			payload.seq++
			comm.Send(0, 1, 1, &payload)
			comm.Recv(0, 1, 2)
		}
		round()
		measure(func() {
			for i := 1; i < rounds; i++ {
				round()
			}
		})
		comm.CloseAll()
	})
	c.RunFor()
}

// A message carrying a pointer is queued by value in a typed mailbox:
// after warm-up, Send and Recv allocate nothing.
func TestSendRecvAllocs(t *testing.T) {
	const rounds = 1000
	c := simtime.NewClock()
	comm := New(c, 2)
	var before, after runtime.MemStats
	pingPong(c, comm, rounds, func(run func()) {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
	})
	msgs := 2 * (rounds - 1)
	if got := float64(after.Mallocs-before.Mallocs) / float64(msgs); got != 0 {
		t.Errorf("Send+Recv of a pointer: %.3f allocations per message, want 0", got)
	}
	if comm.Sent() != 2*rounds {
		t.Errorf("Sent = %d, want %d", comm.Sent(), 2*rounds)
	}
}

// BenchmarkSendRecv is one Send+Recv each way between two ranks, each
// Recv parking its rank until the peer's Send.
func BenchmarkSendRecv(b *testing.B) {
	c := simtime.NewClock()
	comm := New(c, 2)
	b.ReportAllocs()
	pingPong(c, comm, b.N+1, func(run func()) {
		b.ResetTimer()
		run()
		b.StopTimer()
	})
}
