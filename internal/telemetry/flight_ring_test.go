package telemetry

import (
	"fmt"
	"testing"

	"repro/internal/simtime"
)

// TestFlightRingWraparound: a full ring evicts oldest-first, counts
// drops, and FlightDump sees exactly the retained window.
func TestFlightRingWraparound(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	r.SetFlightCapacity(4)
	clock.Go(func() {
		for i := 0; i < 10; i++ {
			r.Event("ev", "n", fmt.Sprint(i))
		}
	})
	clock.RunFor()

	d := r.FlightDump()
	if d.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", d.Dropped)
	}
	if len(d.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := fmt.Sprint(6 + i); ev.Attr("n") != want {
			t.Fatalf("event[%d] n=%q, want %q (oldest retained must be #6)", i, ev.Attr("n"), want)
		}
	}
}

// TestFlightSinceCursor: tailing with the returned cursor yields each
// record exactly once, and a too-slow tailer learns how many records
// it missed.
func TestFlightSinceCursor(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	r.SetFlightCapacity(4)

	clock.Go(func() {
		r.Event("a")
		r.Event("b")
	})
	clock.RunFor()

	t1 := r.FlightSince(0)
	if len(t1.Events) != 2 || t1.Missed != 0 {
		t.Fatalf("first tail: %d events, missed %d; want 2, 0", len(t1.Events), t1.Missed)
	}
	if t1.Events[0].Name != "a" || t1.Events[1].Name != "b" {
		t.Fatalf("first tail order: %s, %s", t1.Events[0].Name, t1.Events[1].Name)
	}

	// Nothing new: empty tail, cursor stable.
	t2 := r.FlightSince(t1.Cursor)
	if len(t2.Events) != 0 || t2.Cursor != t1.Cursor {
		t.Fatalf("idle tail returned %d events, cursor %d (was %d)", len(t2.Events), t2.Cursor, t1.Cursor)
	}

	// Overflow the ring: 6 more records into capacity 4 means the
	// tailer missed the 2 oldest of them. (The clock has stopped, so
	// recording directly from the test goroutine is serialized.)
	for i := 0; i < 6; i++ {
		r.Event("late", "n", fmt.Sprint(i))
	}
	t3 := r.FlightSince(t1.Cursor)
	if len(t3.Events) != 4 {
		t.Fatalf("tail after overflow: %d events, want 4", len(t3.Events))
	}
	if t3.Missed != 2 {
		t.Fatalf("missed = %d, want 2", t3.Missed)
	}
	if t3.Events[0].Attr("n") != "2" || t3.Events[3].Attr("n") != "5" {
		t.Fatalf("tail window [%s..%s], want [2..5]",
			t3.Events[0].Attr("n"), t3.Events[3].Attr("n"))
	}
}

// TestFlightSinceSpans: closed spans appear in the tail once, open
// spans ride along as the full current set with deep-copied attrs.
func TestFlightSinceSpans(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	var openID uint64
	clock.Go(func() {
		done := r.StartSpan("done", "k", "v")
		done.End()
		open := r.StartSpan("still-going")
		openID = open.ID
	})
	clock.RunFor()

	tail := r.FlightSince(0)
	if len(tail.Spans) != 1 || tail.Spans[0].Name != "done" || tail.Spans[0].Attr("k") != "v" {
		t.Fatalf("closed spans in tail: %+v", tail.Spans)
	}
	if len(tail.Open) != 1 || tail.Open[0].ID != openID || tail.Open[0].Status != statusOpen {
		t.Fatalf("open spans in tail: %+v", tail.Open)
	}

	// The closed span is not re-delivered on the next tail.
	tail2 := r.FlightSince(tail.Cursor)
	if len(tail2.Spans) != 0 {
		t.Fatalf("closed span re-delivered: %+v", tail2.Spans)
	}
	if len(tail2.Open) != 1 {
		t.Fatalf("open set must persist across tails, got %d", len(tail2.Open))
	}
}
