package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// TestResourceConservation acquires random unit counts concurrently and
// checks the in-use gauge never exceeds capacity at any observation.
func TestResourceConservation(t *testing.T) {
	c := NewClock()
	const capacity = 7
	res := NewResource(c, capacity)
	r := rand.New(rand.NewSource(3))
	violated := false
	for i := 0; i < 30; i++ {
		n := r.Intn(capacity) + 1
		hold := time.Duration(r.Intn(1000)+1) * time.Millisecond
		c.Go(func() {
			res.Acquire(n)
			if res.inUse > capacity {
				violated = true
			}
			c.Sleep(hold)
			res.Release(n)
		})
	}
	c.RunFor()
	if violated {
		t.Error("resource exceeded capacity")
	}
	if res.inUse != 0 {
		t.Errorf("leaked %d units", res.inUse)
	}
}

// TestDeterministicReplay runs a mixed scenario twice and requires
// identical virtual end times and event traces.
func TestDeterministicReplay(t *testing.T) {
	run := func() (Duration, []string) {
		c := NewClock()
		res := NewResource(c, 2)
		q := NewQueue(c)
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			c.Go(func() {
				res.Acquire(1)
				c.Sleep(time.Duration(i+1) * 100 * time.Millisecond)
				res.Release(1)
				q.Push(i)
			})
		}
		c.Go(func() {
			for i := 0; i < 8; i++ {
				v, _ := q.Pop()
				trace = append(trace, string(rune('a'+v.(int))))
			}
		})
		end := c.RunFor()
		return end, trace
	}
	end1, trace1 := run()
	end2, trace2 := run()
	if end1 != end2 {
		t.Errorf("end times differ: %v vs %v", end1, end2)
	}
	if len(trace1) != len(trace2) {
		t.Fatalf("trace lengths differ")
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, trace1, trace2)
		}
	}
}
