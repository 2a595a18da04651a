package simtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// buildPingPong wires two islands that bounce a counter back and forth
// n times over 1ms-lookahead channels, each side recording what it saw
// and when. Returns the group and the per-island traces.
func buildPingPong(n int) (*Group, []*[]string) {
	g := NewGroup()
	a := g.AddIsland("a")
	b := g.AddIsland("b")
	traceA, traceB := &[]string{}, &[]string{}
	var ab, ba *Channel
	mk := func(isl *Island, out **Channel, trace *[]string) func(interface{}) {
		return func(v interface{}) {
			k := v.(int)
			*trace = append(*trace, fmt.Sprintf("%s got %d at %v", isl.name, k, isl.Clock().Now()))
			if k < n {
				next := k + 1
				isl.Clock().Go(func() {
					isl.Clock().Sleep(500 * time.Microsecond)
					(*out).Send(next)
				})
			}
		}
	}
	ab = g.Connect(a, b, time.Millisecond, mk(b, &ba, traceB))
	ba = g.Connect(b, a, time.Millisecond, mk(a, &ab, traceA))
	a.Clock().Go(func() {
		a.Clock().Sleep(time.Millisecond)
		ab.Send(1)
	})
	return g, []*[]string{traceA, traceB}
}

func TestIslandPingPong(t *testing.T) {
	var want []string
	for workers := 1; workers <= 3; workers++ {
		g, traces := buildPingPong(10)
		end, err := g.Run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// First receipt at 2ms (1ms initial sleep + 1ms flight); each
		// further hop is 500us think + 1ms flight.
		wantEnd := 2*time.Millisecond + 9*(1500*time.Microsecond)
		if end != wantEnd {
			t.Fatalf("workers=%d: end=%v want %v", workers, end, wantEnd)
		}
		got := append(append([]string{}, *traces[0]...), *traces[1]...)
		if workers == 1 {
			want = got
			if len(got) != 10 {
				t.Fatalf("got %d receipts, want 10", len(got))
			}
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("workers=%d diverged:\n%s\nwant:\n%s", workers, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// A message timestamped T must execute before any local event at T:
// the delivery band guarantees sequential and parallel runs agree on
// intra-instant order.
func TestIslandDeliveryOrdersBeforeLocalEvents(t *testing.T) {
	g := NewGroup()
	a := g.AddIsland("a")
	b := g.AddIsland("b")
	var order []string
	ch := g.Connect(a, b, time.Millisecond, func(v interface{}) {
		order = append(order, "delivery")
	})
	// Local callback at exactly the delivery instant, scheduled long
	// before the message could have been known.
	b.Clock().Callback(2*time.Millisecond, func() { order = append(order, "local") })
	a.Clock().Go(func() {
		a.Clock().Sleep(time.Millisecond)
		ch.Send("x") // arrives at 2ms
	})
	if _, err := g.Run(2); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "delivery,local" {
		t.Fatalf("intra-instant order = %v, want delivery first", order)
	}
}

// Sparse cyclic traffic: fast-forward must carry the group across long
// idle gaps instead of null messages creeping a lookahead at a time.
func TestIslandFastForward(t *testing.T) {
	g := NewGroup()
	a := g.AddIsland("a")
	b := g.AddIsland("b")
	got := 0
	var ab *Channel
	ab = g.Connect(a, b, time.Millisecond, func(v interface{}) { got++ })
	g.Connect(b, a, time.Millisecond, func(v interface{}) {})
	a.Clock().Go(func() {
		for i := 0; i < 3; i++ {
			a.Clock().Sleep(time.Hour) // 3.6M lookaheads of idle gap
			ab.Send(i)
		}
	})
	t0 := time.Now()
	if _, err := g.Run(2); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
	st := g.Stats()
	if st.FastForwards == 0 {
		t.Fatal("expected fast-forward rounds over the idle gaps")
	}
	if nulls := st.NullMessages; nulls > 1000 {
		t.Fatalf("null traffic %d: horizons are creeping instead of fast-forwarding", nulls)
	}
	if wall := time.Since(t0); wall > 10*time.Second {
		t.Fatalf("took %v: time creep", wall)
	}
}

// In one slice island a sends 10,000 messages on each of two channels
// into island c while island b runs its own events; the two channels'
// arrivals coincide at many instants. Every message arrives exactly
// once, in (time, channel, send order), and the delivery log does not
// depend on the worker count.
func TestIslandBurstDelivery(t *testing.T) {
	const n = 10000
	type rec struct {
		at  time.Duration
		ch  int
		val int
	}
	run := func(workers int) []rec {
		g := NewGroup()
		a := g.AddIsland("a")
		b := g.AddIsland("b")
		c := g.AddIsland("c")
		var log []rec
		recv := func(ch int) func(interface{}) {
			return func(v interface{}) { log = append(log, rec{c.Clock().Now(), ch, v.(int)}) }
		}
		x := g.Connect(a, c, time.Millisecond, recv(0))
		y := g.Connect(a, c, 2*time.Millisecond, recv(1))
		a.Clock().Go(func() {
			for k := 0; k < n; k++ {
				if k%100 == 0 {
					a.Clock().Sleep(500 * time.Microsecond)
				}
				x.Send(k)
				y.Send(k)
			}
		})
		b.Clock().Go(func() {
			for k := 0; k < 50; k++ {
				b.Clock().Sleep(time.Millisecond)
			}
		})
		if _, err := g.Run(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if adv := g.Stats().Islands[0].Advances; adv != 1 {
			t.Fatalf("workers=%d: sender ran %d slices, want 1", workers, adv)
		}
		return log
	}
	want := run(1)
	if len(want) != 2*n {
		t.Fatalf("delivered %d messages, want %d", len(want), 2*n)
	}
	next := [2]int{}
	for k, r := range want {
		if r.val != next[r.ch] {
			t.Fatalf("delivery %d: channel %d carried %d, want %d", k, r.ch, r.val, next[r.ch])
		}
		next[r.ch]++
		if k == 0 {
			continue
		}
		p := want[k-1]
		if r.at < p.at || r.at == p.at && r.ch < p.ch {
			t.Fatalf("delivery %d %+v before %+v: not in (time, channel, seq) order", k, p, r)
		}
	}
	got := run(2)
	if len(got) != len(want) {
		t.Fatalf("workers=2 delivered %d messages, want %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("workers=2 delivery %d = %+v, workers=1 %+v", k, got[k], want[k])
		}
	}
}

// Run may be called repeatedly: each call drains the scheduled batch
// and aligns all clocks to a common instant for the next one.
func TestIslandMultiRun(t *testing.T) {
	g := NewGroup()
	a := g.AddIsland("a")
	b := g.AddIsland("b")
	var got []string
	ch := g.Connect(a, b, time.Millisecond, func(v interface{}) {
		got = append(got, fmt.Sprintf("%v@%v", v, b.Clock().Now()))
	})
	for epoch := 0; epoch < 3; epoch++ {
		e := epoch
		a.Clock().Go(func() {
			a.Clock().Sleep(time.Duration(e+1) * time.Second) // islands drift apart
			ch.Send(e)
		})
		b.Clock().Go(func() { b.Clock().Sleep(500 * time.Millisecond) })
		end, err := g.Run(2)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if a.Clock().Now() != end || b.Clock().Now() != end {
			t.Fatalf("epoch %d: clocks not aligned: a=%v b=%v end=%v", e, a.Clock().Now(), b.Clock().Now(), end)
		}
	}
	want := "0@1.001s,1@3.002s,2@6.003s"
	if strings.Join(got, ",") != want {
		t.Fatalf("got %v want %s", got, want)
	}
}

// An actor parked on a wait nobody will satisfy is a cross-island
// deadlock, reported rather than hung.
func TestIslandDeadlockDetection(t *testing.T) {
	g := NewGroup()
	a := g.AddIsland("a")
	b := g.AddIsland("b")
	g.Connect(a, b, time.Millisecond, func(v interface{}) {})
	q := NewQueue(b.Clock())
	b.Clock().Go(func() { q.Pop() }) // never fed
	_, err := g.Run(2)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err=%v, want cross-island deadlock", err)
	}
}

// randomPlant builds a seeded random island topology whose actors
// sleep, compute and exchange messages, recording every receipt. The
// trace is a pure function of the seed if the engine is deterministic.
func randomPlant(seed int64, islands int) (*Group, func() string) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGroup()
	isl := make([]*Island, islands)
	traces := make([][]string, islands)
	for i := range isl {
		isl[i] = g.AddIsland(fmt.Sprintf("i%d", i))
	}
	var chans []*Channel
	for i := range isl {
		for j := range isl {
			if i == j || rng.Intn(3) == 0 {
				continue
			}
			to := j
			la := time.Duration(1+rng.Intn(5)) * time.Millisecond
			chans = append(chans, g.Connect(isl[i], isl[j], la, func(v interface{}) {
				traces[to] = append(traces[to], fmt.Sprintf("%d got %v at %v", to, v, isl[to].Clock().Now()))
			}))
		}
	}
	for i := range isl {
		i := i
		outs := []*Channel{}
		for _, ch := range chans {
			if ch.from == isl[i] {
				outs = append(outs, ch)
			}
		}
		n := 5 + rng.Intn(10)
		delays := make([]time.Duration, n)
		picks := make([]int, n)
		for k := range delays {
			delays[k] = time.Duration(rng.Intn(2000)) * time.Microsecond
			if len(outs) > 0 {
				picks[k] = rng.Intn(len(outs))
			}
		}
		isl[i].Clock().Go(func() {
			for k := 0; k < n; k++ {
				isl[i].Clock().Sleep(delays[k])
				if len(outs) > 0 {
					outs[picks[k]].Send(fmt.Sprintf("m%d.%d", i, k))
				}
			}
		})
	}
	return g, func() string {
		var b strings.Builder
		for i := range traces {
			fmt.Fprintf(&b, "island %d ended %v\n", i, isl[i].Clock().Now())
			for _, l := range traces[i] {
				b.WriteString(l + "\n")
			}
		}
		return b.String()
	}
}

// The determinism contract, randomized: any worker count produces the
// identical virtual outcome. CI runs this under -race.
func TestIslandDeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 2010, 424242} {
		var want string
		for workers := 1; workers <= 4; workers++ {
			g, dump := randomPlant(seed, 4)
			if _, err := g.Run(workers); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := dump()
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: workers=%d diverged from single-threaded run:\n--- got\n%s--- want\n%s", seed, workers, got, want)
			}
		}
	}
}
