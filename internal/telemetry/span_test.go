package telemetry

import (
	"reflect"
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
	if n := len(r.openSpans()); n != 0 {
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
	open := r.openSpans()
	if len(open) != 1 || open[0].ID != child.ID {
		t.Fatalf("open spans = %v, want just the child", open)
	}
	child.End()
	if child.Status != StatusOK || child.Parent != parent.ID {
		t.Errorf("child after close: %+v", child)
	}
	if n := len(r.openSpans()); n != 0 {
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
	if sp.Status != statusAborted || sp.CauseEvent != evID {
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
	if len(d.Spans) != 1 || d.Spans[0].Status != statusOpen {
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

// TestOpenSpansInIDOrderAfterOutOfOrderClose: closing spans out of
// start order reshuffles the open set, but OpenSpans and the flight
// dump still list what is open in ID order.
func TestOpenSpansInIDOrderAfterOutOfOrderClose(t *testing.T) {
	r := New(simtime.NewClock())
	var spans []*Span
	for i := 0; i < 6; i++ {
		spans = append(spans, r.StartSpan("s"))
	}
	for _, i := range []int{1, 4, 0} {
		spans[i].End()
	}
	var ids []uint64
	for _, sp := range r.openSpans() {
		ids = append(ids, sp.ID)
	}
	want := []uint64{spans[2].ID, spans[3].ID, spans[5].ID}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("OpenSpans IDs = %v, want %v", ids, want)
	}
	var dumped []uint64
	for _, sp := range r.FlightDump().Spans {
		if sp.Status == statusOpen {
			dumped = append(dumped, sp.ID)
		}
	}
	if !reflect.DeepEqual(dumped, want) {
		t.Errorf("open spans in the dump = %v, want %v", dumped, want)
	}
	for _, sp := range spans {
		sp.End()
	}
	if n := len(r.openSpans()); n != 0 {
		t.Errorf("%d spans leaked open", n)
	}
}

// TestSetAttrPastInlineCapacity: attributes beyond a span's inline
// storage move to a slice of the span's own; no span's labels ever
// share storage with another's.
func TestSetAttrPastInlineCapacity(t *testing.T) {
	r := New(simtime.NewClock())
	a := r.StartSpan("a", "k1", "a1", "k2", "a2", "k3", "a3")
	b := r.StartSpan("b", "k1", "b1", "k2", "b2", "k3", "b3")
	wide := r.StartSpan("wide", "k1", "w1", "k2", "w2", "k3", "w3", "k4", "w4", "k5", "w5")
	a.SetAttr("k4", "a4")
	a.SetAttr("k5", "a5")
	b.SetAttr("k4", "b4")
	b.SetAttr("k1", "b1'")
	wide.SetAttr("k6", "w6")
	for _, c := range []struct {
		sp   *Span
		want map[string]string
	}{
		{a, map[string]string{"k1": "a1", "k2": "a2", "k3": "a3", "k4": "a4", "k5": "a5"}},
		{b, map[string]string{"k1": "b1'", "k2": "b2", "k3": "b3", "k4": "b4"}},
		{wide, map[string]string{"k1": "w1", "k2": "w2", "k3": "w3", "k4": "w4", "k5": "w5", "k6": "w6"}},
	} {
		if len(c.sp.Attrs) != len(c.want) {
			t.Errorf("%s: attrs %v, want %v", c.sp.Name, c.sp.Attrs, c.want)
		}
		for k, v := range c.want {
			if got := c.sp.attr(k); got != v {
				t.Errorf("%s: %s = %q, want %q", c.sp.Name, k, got, v)
			}
		}
	}
}

// TestFlightSinceCopiesAttrs: a tail's spans keep the attributes they
// were read with, however the live span's labels change afterwards.
func TestFlightSinceCopiesAttrs(t *testing.T) {
	r := New(simtime.NewClock())
	closed := r.StartSpan("closed", "k", "v")
	closed.End()
	open := r.StartSpan("open", "k", "v")
	tail := r.FlightSince(0)
	closed.SetAttr("k", "changed")
	open.SetAttr("k", "changed")
	open.SetAttr("extra", "x")
	if got := tail.Spans[0].Attrs; len(got) != 1 || got[0] != (Label{"k", "v"}) {
		t.Errorf("closed span in the tail: attrs %v, want [k=v]", got)
	}
	if got := tail.Open[0].Attrs; len(got) != 1 || got[0] != (Label{"k", "v"}) {
		t.Errorf("open span in the tail: attrs %v, want [k=v]", got)
	}
	open.End()
}

// TestSpanIsOneAllocation: a span with up to three labels, one of them
// set after it opened, costs one allocation over its whole life.
func TestSpanIsOneAllocation(t *testing.T) {
	r := New(simtime.NewClock())
	r.SetFlightCapacity(1)
	parent := r.StartSpan("parent")
	if n := testing.AllocsPerRun(100, func() {
		sp := parent.StartChild("tsm.store", "client", "fta01", "path", "/e/f")
		sp.SetAttr("volume", "VOL0001")
		sp.End()
	}); n != 1 {
		t.Errorf("a three-label span costs %v allocations, want 1", n)
	}
	parent.End()
}

// BenchmarkSpan is one span's life on the store path: a child opened
// with two labels, a third set while it runs, and its close.
func BenchmarkSpan(b *testing.B) {
	r := New(simtime.NewClock())
	parent := r.StartSpan("parent")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := parent.StartChild("tsm.store", "client", "fta01", "path", "/e/f")
		sp.SetAttr("volume", "VOL0001")
		sp.End()
	}
}

// eventByID finds an event in the dump.
func (d *FlightDump) eventByID(id uint64) (FlightEvent, bool) {
	for _, ev := range d.Events {
		if ev.ID == id {
			return ev, true
		}
	}
	return FlightEvent{}, false
}

// attr reports one attribute's value ("" if absent).
func (sp *Span) attr(key string) string {
	for _, l := range sp.Attrs {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}
