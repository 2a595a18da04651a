package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// TestConservationRandomTopologies is the fabric's conservation
// property: over random topologies and random flow arrivals,
//
//	(a) every link's byte counter equals the sum over flows of
//	    bytes x crossing multiplicity for the flows routed over it,
//	(b) no link carries bytes faster than its capacity allows — the
//	    link's bytes never exceed capacity x busy time,
//	(c) every flow completes with its full byte count accounted.
//
// The scheduler's max-min shares are an implementation detail; these
// invariants must hold for any work-conserving allocation.
func TestConservationRandomTopologies(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(trial) * 7919))
		c := simtime.NewClock()
		f := New(c)

		// Random hub-and-spoke topology with a shared core: every host
		// hangs off one of a few hubs, hubs chain through core links.
		// Spoke counts and capacities vary per trial.
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

		type flowRec struct {
			path  Path
			bytes int64
		}
		var flows []flowRec
		n := r.Intn(12) + 3
		for i := 0; i < n; i++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			// A third of the flows bounce through a via host, producing
			// repeated links and crossing multiplicity > 1.
			via := ""
			if r.Intn(3) == 0 {
				via = hosts[r.Intn(len(hosts))]
			}
			p, err := f.Route(src, via, dst)
			if err != nil {
				t.Fatalf("trial %d: route %s->%s via %q: %v", trial, src, dst, via, err)
			}
			rec := flowRec{path: p, bytes: int64(r.Intn(90_000) + 100)}
			flows = append(flows, rec)
			start := simtime.Duration(r.Intn(10)) * time.Second
			c.Go(func() {
				c.Sleep(start)
				f.Transfer(rec.path, rec.bytes)
			})
		}
		end := c.RunFor()

		// (a) per-link accounting: carried bytes == sum of crossing
		// flows' bytes, counting multiplicity for repeated links.
		expect := make(map[*Link]float64)
		for _, rec := range flows {
			mult := make(map[*Link]int)
			for _, l := range rec.path.links {
				mult[l]++
			}
			for l, k := range mult {
				expect[l] += float64(rec.bytes) * float64(k)
			}
		}
		f.settle()
		for _, l := range f.order {
			if math.Abs(l.bytes-expect[l]) > 1 {
				t.Errorf("trial %d link %s: carried %.2f bytes, flows crossing it sum to %.2f",
					trial, l.name, l.bytes, expect[l])
			}
			// (b) capacity: a link busy for l.busy at fixed capacity
			// cannot carry more than capacity x busy (slack for the
			// completion epsilon credited per finishing flow).
			slack := completionEps * float64(len(flows))
			if limit := l.capacity*l.busy.Seconds() + slack; l.bytes > limit+1 {
				t.Errorf("trial %d link %s: carried %.2f bytes in %v busy at %.0f B/s (limit %.2f)",
					trial, l.name, l.bytes, l.busy, l.capacity, limit)
			}
		}

		// (c) nothing still in flight after the clock drains.
		for _, l := range f.order {
			if l.active != 0 {
				t.Errorf("trial %d link %s: %d flows still active at end %v", trial, l.Name(), l.active, end)
			}
		}
	}
}

// TestConservationUnderCapsAndArrivals stresses the same invariants
// with per-flow caps and staggered arrivals on one contended link, where
// the scheduler's freeze/unfreeze transitions are densest.
func TestConservationUnderCapsAndArrivals(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 31))
		c := simtime.NewClock()
		f := New(c)
		shared := f.AddLink("shared", 1000, "a", "b")
		var total int64
		n := r.Intn(8) + 2
		for i := 0; i < n; i++ {
			bytes := int64(r.Intn(50_000) + 500)
			total += bytes
			start := simtime.Duration(r.Intn(5000)) * time.Millisecond
			cap := float64(r.Intn(900) + 50)
			c.Go(func() {
				c.Sleep(start)
				p, err := f.Route("a", "", "b")
				if err != nil {
					panic(err)
				}
				f.start(p, bytes, cap).Wait()
			})
		}
		c.RunFor()
		f.settle()
		if math.Abs(shared.bytes-float64(total)) > 1 {
			t.Errorf("trial %d: shared link carried %.2f of %d bytes", trial, shared.bytes, total)
		}
		slack := completionEps * float64(n)
		if limit := shared.capacity*shared.busy.Seconds() + slack; shared.bytes > limit+1 {
			t.Errorf("trial %d: carried %.2f bytes, capacity x busy allows %.2f", trial, shared.bytes, limit)
		}
	}
}
