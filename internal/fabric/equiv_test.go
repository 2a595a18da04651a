package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// churnResult captures everything observable about one scripted churn
// run: when each flow finished (virtual time) and what every link
// carried, when, and at what peak concurrency. Two runs of the same
// script must produce identical results regardless of scheduler mode.
// fast and fallback count solveHub's outcomes.
type churnResult struct {
	done           []simtime.Duration
	linkBytes      map[string]float64
	linkBusy       map[string]time.Duration
	linkPeak       map[string]int
	linkTimeline   map[string][]timePoint
	fast, fallback uint64
}

func newChurnResult(n int) churnResult {
	return churnResult{
		done:         make([]simtime.Duration, n),
		linkBytes:    make(map[string]float64),
		linkBusy:     make(map[string]time.Duration),
		linkPeak:     make(map[string]int),
		linkTimeline: make(map[string][]timePoint),
	}
}

// collect records every link's settled accounting and the solver
// counters once the run is over.
func (res *churnResult) collect(f *Fabric) {
	for _, l := range f.order {
		st := l.Stats()
		res.linkBytes[st.Name] = st.Bytes
		res.linkBusy[st.Name] = st.Busy
		res.linkPeak[st.Name] = st.PeakFlows
		res.linkTimeline[st.Name] = st.Timeline
	}
	res.fast, res.fallback = f.hubFast, f.hubFallback
}

// sameChurn reports every difference between a run and its reference:
// an incremental run and its full-recompute twin, or an overlapped run
// and its blocking twin.
func sameChurn(t *testing.T, trial int, inc, ref churnResult) {
	t.Helper()
	for i := range ref.done {
		if inc.done[i] != ref.done[i] {
			t.Errorf("trial %d flow %d: finished at %v, reference at %v",
				trial, i, inc.done[i], ref.done[i])
		}
	}
	for name, want := range ref.linkBytes {
		if got := inc.linkBytes[name]; got != want {
			t.Errorf("trial %d link %s: carried %v bytes, reference %v",
				trial, name, got, want)
		}
		if got, want := inc.linkBusy[name], ref.linkBusy[name]; got != want {
			t.Errorf("trial %d link %s: busy %v, reference %v",
				trial, name, got, want)
		}
		if got, want := inc.linkPeak[name], ref.linkPeak[name]; got != want {
			t.Errorf("trial %d link %s: peak %d flows, reference %d",
				trial, name, got, want)
		}
		got, want := inc.linkTimeline[name], ref.linkTimeline[name]
		if len(got) != len(want) {
			t.Errorf("trial %d link %s: timeline has %d points, reference %d",
				trial, name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trial %d link %s timeline[%d]: %+v, reference %+v",
					trial, name, i, got[i], want[i])
				break
			}
		}
	}
	if ref.fast != 0 || ref.fallback != 0 {
		t.Errorf("trial %d: full recompute ran solveHub (%d fast, %d fallback); it must stay the canonical reference",
			trial, ref.fast, ref.fallback)
	}
}

// runChurn executes a randomized but fully seeded churn script — a
// random multi-hub topology, a mix of one-shot transfers (some capped,
// some via detours) and persistent streams with staggered sends — and
// returns the observable outcome.
func runChurn(seed int64, full bool) churnResult {
	r := rand.New(rand.NewSource(seed))
	c := simtime.NewClock()
	f := New(c)
	f.fullRecompute = full

	hubs := r.Intn(3) + 2
	var hosts []string
	for h := 0; h < hubs; h++ {
		hub := fmt.Sprintf("hub%d", h)
		if h > 0 {
			f.AddLink(fmt.Sprintf("core%d", h), float64(r.Intn(900)+100),
				fmt.Sprintf("hub%d", h-1), hub)
		}
		for s := 0; s < r.Intn(3)+1; s++ {
			host := fmt.Sprintf("h%d_%d", h, s)
			f.AddLink(host+"-nic", float64(r.Intn(400)+50), hub, host)
			hosts = append(hosts, host)
		}
	}

	n := r.Intn(10) + 6
	res := newChurnResult(n)
	for i := 0; i < n; i++ {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src == dst {
			res.done[i] = -1
			continue
		}
		via := ""
		if r.Intn(4) == 0 {
			via = hosts[r.Intn(len(hosts))]
		}
		p, err := f.Route(src, via, dst)
		if err != nil {
			panic(err)
		}
		start := simtime.Duration(r.Intn(8000)) * time.Millisecond
		var opts []option
		if r.Intn(3) == 0 {
			opts = append(opts, WithCap(float64(r.Intn(700)+40)))
		}
		i := i
		if r.Intn(2) == 0 {
			// One-shot transfer.
			bytes := int64(r.Intn(60_000) + 200)
			c.Go(func() {
				c.Sleep(start)
				f.Transfer(p, bytes, opts...)
				res.done[i] = c.Now()
			})
		} else {
			// Persistent stream: several sends with gaps between them,
			// exercising idle/active transitions and stream finalize.
			sends := r.Intn(4) + 1
			var chunks []int64
			var gaps []simtime.Duration
			for s := 0; s < sends; s++ {
				chunks = append(chunks, int64(r.Intn(20_000)+100))
				gaps = append(gaps, simtime.Duration(r.Intn(1500))*time.Millisecond)
			}
			c.Go(func() {
				c.Sleep(start)
				st := f.Stream(p, opts...)
				for s := range chunks {
					st.Send(chunks[s])
					c.Sleep(gaps[s])
				}
				st.Close()
				st.Wait()
				res.done[i] = c.Now()
			})
		}
	}
	c.RunFor()
	res.collect(f)
	return res
}

// runHubChurn is runChurn's trunk-bound counterpart, the shape solveHub
// takes: every route crosses one trunk between a west and an east hub
// (one route twice, out and back), 40-200 one-shot flows and streams
// share it, some capped, and the trunk degrades mid-run. Every NIC is at
// least as fast as the degraded trunk, so a solveHub fallback is a cap
// binding (or the binding replay refusing), never a NIC.
func runHubChurn(seed int64, full bool) churnResult {
	r := rand.New(rand.NewSource(seed))
	c := simtime.NewClock()
	f := New(c)
	f.fullRecompute = full

	capacity := float64(r.Intn(4000) + 2000)
	trunk := f.AddLink("trunk", capacity, "west", "east")
	hosts := func(side string) []string {
		names := make([]string, r.Intn(6)+3)
		for h := range names {
			names[h] = fmt.Sprintf("%s%d", side[:1], h)
			f.AddLink(names[h]+"-nic", capacity*(1+2*r.Float64()), side, names[h])
		}
		return names
	}
	west, east := hosts("west"), hosts("east")
	degradeAt := simtime.Duration(r.Intn(60)+5) * time.Second
	degradeTo := capacity * (0.3 + 0.6*r.Float64())
	c.Go(func() {
		c.Sleep(degradeAt)
		trunk.setCapacity(degradeTo)
	})

	n := r.Intn(161) + 40
	res := newChurnResult(n)
	for i := 0; i < n; i++ {
		w := r.Intn(len(west))
		src, dst, via := west[w], east[r.Intn(len(east))], ""
		if i == 0 {
			// Out across the trunk and back: multiplicity 2 on it.
			via, dst = dst, west[(w+1+r.Intn(len(west)-1))%len(west)]
		}
		p, err := f.Route(src, via, dst)
		if err != nil {
			panic(err)
		}
		start := simtime.Duration(r.Intn(40_000)) * time.Millisecond
		var opts []option
		if r.Intn(4) == 0 {
			opts = append(opts, WithCap(capacity/float64(r.Intn(96)+5)))
		}
		i := i
		if r.Intn(2) == 0 {
			bytes := int64(r.Intn(20_000) + 200)
			c.Go(func() {
				c.Sleep(start)
				f.Transfer(p, bytes, opts...)
				res.done[i] = c.Now()
			})
			continue
		}
		chunks := make([]int64, r.Intn(4)+1)
		gaps := make([]simtime.Duration, len(chunks))
		for s := range chunks {
			chunks[s] = int64(r.Intn(8_000) + 100)
			gaps[s] = simtime.Duration(r.Intn(3000)) * time.Millisecond
		}
		c.Go(func() {
			c.Sleep(start)
			st := f.Stream(p, opts...)
			for s := range chunks {
				st.Send(chunks[s])
				c.Sleep(gaps[s])
			}
			st.Close()
			res.done[i] = c.Now()
		})
	}
	c.RunFor()
	res.collect(f)
	return res
}

// TestIncrementalMatchesFullRecompute is the scheduler-mode
// equivalence property: the incremental component-local max-min solver
// must be observationally identical — bit-exact completion times and
// link counters — to the brute-force solve-everything-on-every-event
// mode (fullRecompute). The incremental mode is purely a
// wall-clock optimization; any divergence is a bug in its component
// seeding or settle logic.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial)*104729 + 17
		sameChurn(t, trial, runChurn(seed, false), runChurn(seed, true))
	}
}

// TestHubSolveMatchesFullRecompute holds solveHub and the uniform
// horizon to the same bit-exact standard on the trunk-bound shape they
// shortcut, and checks that both its fast path and its fallback to the
// canonical solver ran.
func TestHubSolveMatchesFullRecompute(t *testing.T) {
	var fast, fallback uint64
	for trial := 0; trial < 20; trial++ {
		seed := int64(trial)*7919 + 3
		inc := runHubChurn(seed, false)
		sameChurn(t, trial, inc, runHubChurn(seed, true))
		fast += inc.fast
		fallback += inc.fallback
	}
	if fast == 0 || fallback == 0 {
		t.Errorf("solveHub ran %d fast solves and %d cap fallbacks; the scenario must exercise both", fast, fallback)
	}
}

// TestStreamMatchesOneShotFlow checks that a persistent stream carrying
// chunks back-to-back is physically identical to one flow carrying
// their sum: same completion time, same link bytes. Streams exist so
// small-file workloads don't churn a flow per file; they must not
// change what the fabric simulates.
func TestStreamMatchesOneShotFlow(t *testing.T) {
	chunkSets := [][]int64{
		{1000},
		{4096, 4096, 4096},
		{100, 50_000, 7, 1234, 999},
	}
	for ci, chunks := range chunkSets {
		var total int64
		for _, n := range chunks {
			total += n
		}

		run := func(streamed bool) (simtime.Duration, float64) {
			c := simtime.NewClock()
			f := New(c)
			f.AddLink("nic-a", 300, "a", "sw")
			f.AddLink("nic-b", 200, "sw", "b")
			var done simtime.Duration
			c.Go(func() {
				p, err := f.Route("a", "", "b")
				if err != nil {
					panic(err)
				}
				if streamed {
					st := f.Stream(p)
					for _, n := range chunks {
						st.Send(n)
					}
					st.Close()
					st.Wait()
				} else {
					f.Transfer(p, total)
				}
				done = c.Now()
			})
			c.RunFor()
			return done, f.Link("nic-b").Stats().Bytes
		}

		sDone, sBytes := run(true)
		oDone, oBytes := run(false)
		// Each chunk completion rounds its timer up to the next
		// nanosecond, so a stream of k chunks may finish up to k ns
		// after the single flow — quantization, not physics.
		tol := simtime.Duration(len(chunks)) * time.Nanosecond
		if diff := sDone - oDone; diff < -tol || diff > tol {
			t.Errorf("chunks %d: stream finished at %v, one-shot flow at %v (tolerance %v)", ci, sDone, oDone, tol)
		}
		if math.Abs(sBytes-oBytes) > 1e-6 {
			t.Errorf("chunks %d: stream carried %v bytes, one-shot flow %v", ci, sBytes, oBytes)
		}
	}
}
