package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// The WFQ invariants, tested as randomized properties:
//
//  1. work conservation — a limited station with backlog never idles
//     a slot, so with unit service times the makespan is exactly
//     totalWork/slots;
//  2. equal long-run shares — continuously backlogged tenants with
//     equal-sized items complete equal numbers of them, however deep
//     each one's backlog;
//  3. isolation — a tenant's own backlog never delays another
//     tenant's first item by more than the residual service of the
//     items already running.

func TestWFQWorkConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := simtime.NewClock()
		s := Of(c)
		slots := 1 + rng.Intn(4)
		s.SetLimit("wc", slots)
		st := s.Station("wc")
		service := time.Second
		n := slots * (10 + rng.Intn(40))
		for i := 0; i < n; i++ {
			tenant := fmt.Sprintf("t%d", rng.Intn(6))
			class := classOrder[rng.Intn(3)]
			c.Go(func() {
				g := st.Admit(Item{QoS: QoS{Tenant: tenant, Class: class}, Units: 1 + rng.Int63n(100)})
				c.Sleep(service)
				g.Done()
			})
		}
		end := c.RunFor()
		want := time.Duration(n/slots) * service
		if end != want {
			t.Fatalf("seed %d: makespan %v, want %v (%d unit items / %d slots): a slot idled with backlog present",
				seed, end, want, n, slots)
		}
	}
}

func TestWFQEqualShares(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := simtime.NewClock()
		s := Of(c)
		s.SetLimit("shares", 2)
		st := s.Station("shares")
		tenants := []string{"small", "mid", "big"}
		done := map[string]int{}
		stop := false
		var spawn func(tenant string)
		spawn = func(tenant string) {
			c.Go(func() {
				g := st.Admit(Item{QoS: QoS{Tenant: tenant, Class: Batch}, Units: 10})
				c.Sleep(time.Second)
				g.Done()
				done[tenant]++
				if !stop {
					spawn(tenant)
				}
			})
		}
		// Every tenant continuously backlogged, each with its own
		// outstanding depth: the share must not follow the depth.
		for _, tn := range tenants {
			for i := 2 + rng.Intn(14); i > 0; i-- {
				spawn(tn)
			}
		}
		c.At(c.Now()+2000*time.Second, func() { stop = true })
		c.RunFor()
		total := 0
		for _, tn := range tenants {
			total += done[tn]
		}
		for _, tn := range tenants {
			if got := float64(done[tn]) / float64(total); math.Abs(got-1.0/3) > 0.08 {
				t.Fatalf("seed %d: tenant %s share %.3f, want 1/3 (done %v)", seed, tn, got, done)
			}
		}
	}
}

// TestWFQIdleTenantNeverBlocked: tenant A keeps a deep backlog; B is
// idle until it submits a single item. B's queue wait must be bounded
// by the in-flight residual (one service time per slot), not by A's
// backlog depth — an idle tenant's start tag catches up to lane
// virtual time instead of waiting behind credit A banked.
func TestWFQIdleTenantNeverBlocked(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := simtime.NewClock()
		s := Of(c)
		s.SetLimit("iso", 1)
		st := s.Station("iso")
		service := time.Second
		backlog := 50 + rng.Intn(100)
		for i := 0; i < backlog; i++ {
			c.Go(func() {
				g := st.Admit(Item{QoS: QoS{Tenant: "flood", Class: Batch}, Units: 1000})
				c.Sleep(service)
				g.Done()
			})
		}
		arrive := time.Duration(5+rng.Intn(20)) * time.Second
		var wait simtime.Duration = -1
		c.Go(func() {
			c.Sleep(arrive)
			g := st.Admit(Item{QoS: QoS{Tenant: "idle", Class: Batch}, Units: 1000})
			wait = g.wait
			c.Sleep(service)
			g.Done()
		})
		c.RunFor()
		// One slot: at worst the flood item in service finishes, then
		// at most one more flood item that tied on the virtual tag.
		if limit := 2 * service; wait < 0 || wait > limit {
			t.Fatalf("seed %d: idle tenant waited %v behind a %d-deep foreign backlog (limit %v)",
				seed, wait, backlog, limit)
		}
	}
}

// TestWFQRandomizedAllServed drives a random mix of tenants, classes,
// sizes and expedite flags and checks global sanity: everything submitted
// is eventually dispatched and completed, per-tenant accounting
// balances, and the trace is internally consistent.
func TestWFQRandomizedAllServed(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := simtime.NewClock()
		s := Of(c)
		s.enableTrace()
		s.SetLimit("rand", 1+rng.Intn(3))
		st := s.Station("rand")
		n := 50 + rng.Intn(150)
		completed := 0
		for i := 0; i < n; i++ {
			tenant := fmt.Sprintf("t%d", rng.Intn(4))
			class := classOrder[rng.Intn(3)]
			delay := time.Duration(rng.Intn(60)) * time.Second
			units := 1 + rng.Int63n(50)
			c.Go(func() {
				c.Sleep(delay)
				g := st.Admit(Item{QoS: QoS{Tenant: tenant, Class: class}, Units: units, Expedite: rng.Intn(4) == 0})
				c.Sleep(time.Duration(1+rng.Intn(5)) * time.Second)
				g.Done()
				completed++
			})
		}
		c.RunFor()
		if completed != n {
			t.Fatalf("seed %d: %d/%d completed", seed, completed, n)
		}
		if got := len(s.traceLog()); got != n {
			t.Fatalf("seed %d: trace has %d dispatches, want %d", seed, got, n)
		}
		var items int64
		for _, a := range s.TenantStats() {
			items += a.Items
		}
		if items != int64(n) {
			t.Fatalf("seed %d: accounting says %d items, want %d", seed, items, n)
		}
		if s.queued() != 0 || st.inFlight != 0 {
			t.Fatalf("seed %d: residue queued=%d inflight=%d", seed, s.queued(), st.inFlight)
		}
	}
}
