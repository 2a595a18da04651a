package simtime

import (
	"sync"
	"testing"
)

type slotThing struct{ c *Clock }

func newSlotThing(c *Clock) interface{} { return &slotThing{c: c} }

// The satellite contract: singleton lookups sit on the hot path of
// every counter bump and fabric settle, so after first resolution they
// must cost zero allocations and take no lock.
func TestSlotOfZeroAlloc(t *testing.T) {
	s := NewSlot()
	c := NewClock()
	first := c.SlotOf(s, newSlotThing)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.SlotOf(s, newSlotThing) != first {
			t.Fatal("slot identity changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("SlotOf allocates %v per lookup, want 0", allocs)
	}
}

func TestSlotOfPerClock(t *testing.T) {
	s1, s2 := NewSlot(), NewSlot()
	c1, c2 := NewClock(), NewClock()
	a := c1.SlotOf(s1, newSlotThing).(*slotThing)
	b := c2.SlotOf(s1, newSlotThing).(*slotThing)
	if a == b {
		t.Fatal("distinct clocks shared a slot value")
	}
	if a.c != c1 || b.c != c2 {
		t.Fatal("constructor received wrong clock")
	}
	if c1.SlotOf(s2, newSlotThing) == interface{}(a) {
		t.Fatal("distinct slots shared a value")
	}
	if c1.SlotOf(s1, newSlotThing).(*slotThing) != a {
		t.Fatal("lookup not idempotent")
	}
}

// Concurrent first-touch from many goroutines must converge on one
// instance (exercised under -race in CI).
func TestSlotOfConcurrent(t *testing.T) {
	s := NewSlot()
	c := NewClock()
	var wg sync.WaitGroup
	got := make([]interface{}, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.SlotOf(s, newSlotThing)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent first resolutions disagree")
		}
	}
}

func BenchmarkSlotOf(b *testing.B) {
	s := NewSlot()
	c := NewClock()
	c.SlotOf(s, newSlotThing)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SlotOf(s, newSlotThing)
	}
}
