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
// carried. Two runs of the same script must produce identical results
// regardless of scheduler mode.
type churnResult struct {
	done      []simtime.Duration
	linkBytes map[string]float64
	linkBusy  map[string]time.Duration
}

// runChurn executes a randomized but fully seeded churn script — a
// random multi-hub topology, a mix of one-shot transfers (some capped,
// some via detours) and persistent streams with staggered sends — and
// returns the observable outcome.
func runChurn(seed int64, full bool) churnResult {
	r := rand.New(rand.NewSource(seed))
	c := simtime.NewClock()
	f := New(c)
	f.SetFullRecompute(full)

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
	res := churnResult{
		done:      make([]simtime.Duration, n),
		linkBytes: make(map[string]float64),
		linkBusy:  make(map[string]time.Duration),
	}
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
		var opts []Option
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
	for _, l := range f.Links() {
		st := l.Stats()
		res.linkBytes[st.Name] = st.Bytes
		res.linkBusy[st.Name] = st.Busy
	}
	return res
}

// TestIncrementalMatchesFullRecompute is the scheduler-mode
// equivalence property: the incremental component-local max-min solver
// must be observationally identical — bit-exact completion times and
// link counters — to the brute-force solve-everything-on-every-event
// mode (SetFullRecompute). The incremental mode is purely a
// wall-clock optimization; any divergence is a bug in its component
// seeding or settle logic.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial)*104729 + 17
		inc := runChurn(seed, false)
		ref := runChurn(seed, true)
		for i := range ref.done {
			if inc.done[i] != ref.done[i] {
				t.Errorf("trial %d flow %d: incremental finished at %v, full recompute at %v",
					trial, i, inc.done[i], ref.done[i])
			}
		}
		for name, want := range ref.linkBytes {
			if got := inc.linkBytes[name]; got != want {
				t.Errorf("trial %d link %s: incremental carried %v bytes, full recompute %v",
					trial, name, got, want)
			}
		}
		for name, want := range ref.linkBusy {
			if got := inc.linkBusy[name]; got != want {
				t.Errorf("trial %d link %s: incremental busy %v, full recompute %v",
					trial, name, got, want)
			}
		}
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
