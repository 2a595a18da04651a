package fabric

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// overlapSeg is one transfer of an overlap script: n bytes started while
// the owner has other work of duration work to do (a tape drive's write,
// say); the owner moves on at the later of the drain and the work's end.
type overlapSeg struct {
	n    int64
	work simtime.Duration
}

// overlapResult is what one overlap script run observes: per transfer,
// the instant its owner moves on and its taint report, and the
// fabric-wide accounting.
type overlapResult struct {
	churnResult
	taints                      []string
	started, completed, corrupt float64
	drainedEarly, drainedLate   int // send mode: segments drained before / not before the work ended
}

// runOverlap runs a seeded script of persistent streams and one-shot
// flows, each carrying segments with some other work alongside, while
// armed corruptions land on random links. push starts each transfer
// without blocking (Stream.Push or Start), does the work, then Waits;
// otherwise the owner blocks in Send or Transfer first and then does
// whatever is left of the work. Both orders start every transfer at the
// same instant and move on at the same instant, so the fabric must see
// the same script.
func runOverlap(seed int64, push bool) overlapResult {
	r := rand.New(rand.NewSource(seed))
	c := simtime.NewClock()
	f := New(c)
	hosts := []string{"h0", "h1", "h2", "h3"}
	for _, h := range hosts {
		f.AddLink(h+"-nic", float64(r.Intn(400)+100), "hub", h)
	}
	type owner struct {
		p      Path
		stream bool
		start  simtime.Duration
		segs   []overlapSeg
		out    int // index of its first segment in res.done
	}
	var owners []owner
	total := 0
	for i := r.Intn(4) + 4; i > 0; i-- {
		src, dst := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if src == dst {
			continue
		}
		p, err := f.Route(src, "", dst)
		if err != nil {
			panic(err)
		}
		o := owner{p: p, stream: r.Intn(3) > 0, start: simtime.Duration(r.Intn(3000)) * time.Millisecond, out: total}
		for s := r.Intn(5) + 1; s > 0; s-- {
			seg := overlapSeg{n: int64(r.Intn(20_000) + 100)}
			if r.Intn(4) > 0 {
				// Up to four times the segment's uncontended time, so
				// some segments drain first and some outlast the work.
				seg.work = simtime.Duration(r.Intn(4*int(seg.n))) * time.Millisecond * 10
			}
			o.segs = append(o.segs, seg)
		}
		total += len(o.segs)
		owners = append(owners, o)
	}
	res := overlapResult{churnResult: churnResult{done: make([]simtime.Duration, total)}, taints: make([]string, total)}
	for i := r.Intn(6) + 2; i > 0; i-- {
		at := simtime.Duration(r.Intn(60_000)) * time.Millisecond
		l := f.order[r.Intn(len(f.order))]
		c.Go(func() {
			c.Sleep(at)
			l.armCorrupt(uint64(at))
		})
	}
	for _, o := range owners {
		c.Go(func() {
			c.Sleep(o.start)
			var st *Flow
			if o.stream {
				st = f.Stream(o.p)
			}
			for s, seg := range o.segs {
				t0 := c.Now()
				fl := st
				switch {
				case push && o.stream:
					st.Push(seg.n)
				case push:
					fl = f.Start(o.p, seg.n)
				case o.stream:
					st.Send(seg.n)
				default:
					fl = f.Start(o.p, seg.n)
					fl.Wait()
				}
				if push {
					c.Sleep(seg.work)
					fl.Wait()
				} else if end := t0 + seg.work; c.Now() < end {
					res.drainedEarly++
					c.Sleep(end - c.Now())
				} else {
					res.drainedLate++
				}
				cause, tainted := fl.Tainted()
				res.finished(f, o.out+s)
				res.taints[o.out+s] = fmt.Sprint(cause, tainted)
			}
			if st != nil {
				st.Close()
			}
		})
	}
	c.RunFor()
	res.collect(f)
	tel := telemetry.Of(c)
	res.started = tel.Counter("fabric_flows_started_total").Value()
	res.completed = tel.Counter("fabric_flows_completed_total").Value()
	res.corrupt = tel.Counter("fabric_flows_corrupted_total").Value()
	return res
}

// TestPushThenWaitMatchesSend holds the non-blocking start to the
// blocking one: starting a transfer, doing other work and then waiting
// gives bit-identical instants, link bytes, busy time and peaks (after
// every completion and at the end), flow counters and taint reports to
// sending first and working after —
// including segments that drain before Wait is called.
func TestPushThenWaitMatchesSend(t *testing.T) {
	var early, late int
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial)*6151 + 11
		send, push := runOverlap(seed, false), runOverlap(seed, true)
		// sameChurn's reference is a full-recompute run that never
		// takes solveHub; here both runs are incremental, so their
		// solver counters must agree instead.
		if push.fast != send.fast || push.fallback != send.fallback {
			t.Errorf("trial %d: push ran solveHub %d fast, %d fallback; send %d, %d",
				trial, push.fast, push.fallback, send.fast, send.fallback)
		}
		send.fast, send.fallback = 0, 0
		sameChurn(t, trial, push.churnResult, send.churnResult)
		for i := range send.taints {
			if push.taints[i] != send.taints[i] {
				t.Errorf("trial %d transfer %d: push taint %s, send taint %s", trial, i, push.taints[i], send.taints[i])
			}
		}
		if push.started != send.started || push.completed != send.completed || push.corrupt != send.corrupt {
			t.Errorf("trial %d: push counted %v started, %v completed, %v corrupted; send %v, %v, %v",
				trial, push.started, push.completed, push.corrupt, send.started, send.completed, send.corrupt)
		}
		if push.completed != push.started {
			t.Errorf("trial %d: %v flows started, %v completed", trial, push.started, push.completed)
		}
		early += send.drainedEarly
		late += send.drainedLate
	}
	t.Logf("%d segments drained before Wait, %d after", early, late)
	if early == 0 || late == 0 {
		t.Errorf("%d segments drained before Wait and %d after; the script must exercise both", early, late)
	}
}

// TestZeroBytePushCompletes checks that an empty segment, like an empty
// Send, counts as one started and completed flow and leaves Wait
// nothing to block on.
func TestZeroBytePushCompletes(t *testing.T) {
	c := simtime.NewClock()
	f := New(c)
	l := f.AddLink("nic", 100, "a", "b")
	c.Go(func() {
		st := f.Stream(Path{}.With(l))
		st.Push(0)
		st.Wait()
		if c.Now() != 0 {
			t.Errorf("empty segment finished at %v, want 0", c.Now())
		}
		st.Close()
	})
	c.RunFor()
	tel := telemetry.Of(c)
	if s, d := tel.Counter("fabric_flows_started_total").Value(), tel.Counter("fabric_flows_completed_total").Value(); s != 1 || d != 1 {
		t.Errorf("started %v, completed %v; want 1 and 1", s, d)
	}
}

// A stream that drains at instant t, is joined on its link by a second
// flow at t, and is pushed again at t never left the allocation: the
// re-extension makes it one of two flows on the link at once, and the
// link's peak must say so. The join alone counts one (the stream's
// drain already took it off the link's active count).
func TestPushAfterDrainCountsPeakWithSameInstantJoin(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, err := f.Route("src", "", "a")
		if err != nil {
			t.Fatal(err)
		}
		st := f.Stream(p)
		st.Send(200)
		drained := c.Now()
		fl := f.Start(p, 100)
		st.Push(100)
		if c.Now() != drained {
			t.Fatalf("join and push at %v, the drain was at %v", c.Now(), drained)
		}
		fl.Wait()
		st.Wait()
		st.Close()
	})
	c.RunFor()
	for _, name := range []string{"array", "trunk", "nicA"} {
		if got := linkSeries(f, "peak_flows", name); got != 2 {
			t.Errorf("%s peak flows = %v, want 2", name, got)
		}
	}
}
