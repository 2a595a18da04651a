package telemetry

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestSpanLifecycle(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	clock.Go(func() {
		parent := r.StartSpan("pftool.run", "op", "pfcp")
		clock.Sleep(time.Second)
		child := parent.StartChild("pftool.job", "rank", "3")
		if child.Parent != parent.ID {
			t.Errorf("child.Parent = %d, want %d", child.Parent, parent.ID)
		}
		if child.attr("rank") != "3" {
			t.Errorf("Attr(rank) = %q", child.attr("rank"))
		}
		child.SetAttr("rank", "4")
		child.SetAttr("volume", "V1")
		if child.attr("rank") != "4" || child.attr("volume") != "V1" {
			t.Error("SetAttr did not replace/append")
		}
		clock.Sleep(time.Second)
		child.End()
		parent.End()
		if child.Status != StatusOK {
			t.Errorf("child status = %q", child.Status)
		}
		if child.StartAt != simtime.Duration(time.Second) || child.EndAt != simtime.Duration(2*time.Second) {
			t.Errorf("child stamps = %v..%v", child.StartAt, child.EndAt)
		}
	})
	clock.RunFor()
	if n := len(r.OpenSpans()); n != 0 {
		t.Errorf("%d spans leaked open", n)
	}
}

func TestSpanDoubleCloseIsNoOp(t *testing.T) {
	r := New(simtime.NewClock())
	sp := r.StartSpan("job")
	sp.End()
	sp.Abort("too late", 99)
	if sp.Status != StatusOK || sp.Cause != "" || sp.CauseEvent != 0 {
		t.Errorf("second close mutated span: %+v", sp)
	}
	// The ring must hold exactly one record for the span, not one per
	// close attempt.
	if d := r.FlightDump(); len(d.Spans) != 1 {
		t.Errorf("flight holds %d spans, want 1", len(d.Spans))
	}
}

func TestNilSpanCloseIsSafe(t *testing.T) {
	var sp *Span
	sp.End() // must not panic
	sp.Abort("nothing", 0)
}

func TestChildMayOutliveParent(t *testing.T) {
	r := New(simtime.NewClock())
	parent := r.StartSpan("hsm.migrate")
	child := parent.StartChild("tsm.store")
	parent.End()
	open := r.OpenSpans()
	if len(open) != 1 || open[0].ID != child.ID {
		t.Fatalf("open spans = %v, want just the child", open)
	}
	child.End()
	if child.Status != StatusOK || child.Parent != parent.ID {
		t.Errorf("child after close: %+v", child)
	}
	if n := len(r.OpenSpans()); n != 0 {
		t.Errorf("%d spans leaked open", n)
	}
}

func TestChildOfNilParentIsRoot(t *testing.T) {
	r := New(simtime.NewClock())
	sp := ChildOf(r, nil, "tape.mount", "drive", "d0")
	if sp.Parent != 0 {
		t.Errorf("Parent = %d, want 0", sp.Parent)
	}
	sp.End()
}

func TestAbortCitesFaultEvent(t *testing.T) {
	r := New(simtime.NewClock())
	evID := r.Event("fault", "component", "node:fta05", "kind", "fail")
	id, ok := r.LastEventFor("node:fta05")
	if !ok || id != evID {
		t.Fatalf("LastEventFor = %d,%v, want %d,true", id, ok, evID)
	}
	sp := r.StartSpan("pftool.job", "rank", "4")
	sp.Abort("rank 4 died: machine fta05 down", evID)
	if sp.Status != StatusAborted || sp.CauseEvent != evID {
		t.Errorf("aborted span: %+v", sp)
	}
	d := r.FlightDump()
	aborted := d.Aborted()
	if len(aborted) != 1 || aborted[0].CauseEvent != evID {
		t.Fatalf("dump aborted = %+v", aborted)
	}
	ev, ok := d.eventByID(evID)
	if !ok || ev.Attr("component") != "node:fta05" || ev.Attr("kind") != "fail" {
		t.Errorf("cause event not in dump: %+v ok=%v", ev, ok)
	}
}

func TestOpenSpansAppearInDump(t *testing.T) {
	r := New(simtime.NewClock())
	sp := r.StartSpan("pftool.run")
	d := r.FlightDump()
	if len(d.Spans) != 1 || d.Spans[0].Status != StatusOpen {
		t.Errorf("dump spans = %+v, want one open span", d.Spans)
	}
	sp.End()
}

func TestFlightRingBounded(t *testing.T) {
	r := New(simtime.NewClock())
	r.SetFlightCapacity(4)
	var last uint64
	for i := 0; i < 10; i++ {
		last = r.Event("fault", "kind", "fail")
	}
	d := r.FlightDump()
	if len(d.Events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(d.Events))
	}
	if d.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", d.Dropped)
	}
	// The survivors are the most recent four.
	if got := d.Events[len(d.Events)-1].ID; got != last {
		t.Errorf("newest event = %d, want %d", got, last)
	}
	if got := d.Events[0].ID; got != last-3 {
		t.Errorf("oldest surviving event = %d, want %d", got, last-3)
	}
}

func TestEventsAndSpansShareIDSpace(t *testing.T) {
	r := New(simtime.NewClock())
	sp := r.StartSpan("a")
	ev := r.Event("fault")
	if ev != sp.ID+1 {
		t.Errorf("event ID %d, span ID %d: not one sequence", ev, sp.ID)
	}
	sp.End()
}
