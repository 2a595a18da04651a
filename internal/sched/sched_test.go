package sched

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simtime"
)

// runItem admits one item on st, holds the grant for service, and
// appends the tenant to order on dispatch (not completion), so tests
// can assert admission order directly.
func runItem(c *simtime.Clock, st *Station, it Item, service time.Duration, order *[]string) {
	c.Go(func() {
		g := st.Admit(it)
		*order = append(*order, it.Tenant)
		c.Sleep(service)
		g.Done()
	})
}

func TestPassThroughIsImmediate(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	var wait simtime.Duration = -1
	var at simtime.Duration = -1
	c.Go(func() {
		c.Sleep(5 * time.Second)
		g := st.Admit(Item{Kind: "x", Units: 100})
		wait = g.wait
		at = c.Now()
		g.Done()
	})
	c.RunFor()
	if wait != 0 {
		t.Fatalf("pass-through wait = %v, want 0", wait)
	}
	if at != 5*time.Second {
		t.Fatalf("pass-through grant at %v, want 5s (no virtual time may pass)", at)
	}
	if s.queued() != 0 || st.inFlight != 0 {
		t.Fatalf("station not drained: queued=%d inflight=%d", s.queued(), st.inFlight)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetLimit(test, 0) did not panic")
			}
		}()
		s.SetLimit("test", 0)
	}()
	if st.slots != 0 {
		t.Fatalf("refused SetLimit left limit %d, want pass-through", st.slots)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := simtime.NewClock()
	st := Of(c).Station("test")
	c.Go(func() {
		g := st.Admit(Item{Kind: "x"})
		if g.item.Tenant != DefaultTenant {
			t.Errorf("tenant = %q, want %q", g.item.Tenant, DefaultTenant)
		}
		if g.item.Class != Batch {
			t.Errorf("class = %v, want Batch", g.item.Class)
		}
		if g.item.Units != 1 {
			t.Errorf("units = %d, want 1", g.item.Units)
		}
		g.Done()
		g.Done() // double Done must be a no-op
	})
	c.RunFor()
	if st.inFlight != 0 {
		t.Fatalf("double Done corrupted inFlight = %d", st.inFlight)
	}
}

func TestStrictClassPriority(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	s.SetLimit("test", 1)
	st := s.Station("test")
	var order []string
	// Occupy the only slot, then queue one of each class (scavenger
	// and batch ahead of interactive in arrival order).
	c.Go(func() {
		g := st.Admit(Item{QoS: QoS{Tenant: "hog", Class: Batch}})
		c.Sleep(10 * time.Second)
		g.Done()
	})
	c.Go(func() {
		c.Sleep(time.Second)
		runItem(c, st, Item{QoS: QoS{Tenant: "scav", Class: Scavenger}}, time.Second, &order)
		runItem(c, st, Item{QoS: QoS{Tenant: "batch", Class: Batch}}, time.Second, &order)
		runItem(c, st, Item{QoS: QoS{Tenant: "inter", Class: Interactive}}, time.Second, &order)
	})
	c.RunFor()
	want := []string{"inter", "batch", "scav"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

func TestExpediteRunsFirstWithinTenant(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	s.SetLimit("test", 1)
	st := s.Station("test")
	var order []string
	c.Go(func() {
		g := st.Admit(Item{QoS: QoS{Tenant: "t", Class: Batch}})
		c.Sleep(10 * time.Second)
		g.Done()
	})
	c.Go(func() {
		c.Sleep(time.Second)
		c.Go(func() {
			g := st.Admit(Item{QoS: QoS{Tenant: "t", Class: Batch}, Kind: "slow"})
			order = append(order, "slow")
			g.Done()
		})
		c.Sleep(time.Second)
		c.Go(func() {
			g := st.Admit(Item{QoS: QoS{Tenant: "t", Class: Batch}, Kind: "recall", Expedite: true})
			order = append(order, "recall")
			g.Done()
		})
	})
	c.RunFor()
	want := []string{"recall", "slow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

func TestScavengerAntiStarvationShare(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	s.SetLimit("test", 1)
	s.SetScavengerShare(0.2) // 1 in 5 while backlogged
	st := s.Station("test")
	interDone, scavDone := 0, 0
	// Keep both lanes continuously backlogged: each completion
	// resubmits. Count completions over a fixed horizon.
	var spawnInter, spawnScav func()
	stop := false
	spawnInter = func() {
		c.Go(func() {
			g := st.Admit(Item{QoS: QoS{Tenant: "user", Class: Interactive}})
			c.Sleep(time.Second)
			g.Done()
			interDone++
			if !stop {
				spawnInter()
			}
		})
	}
	spawnScav = func() {
		c.Go(func() {
			g := st.Admit(Item{QoS: QoS{Tenant: "scrub", Class: Scavenger}})
			c.Sleep(time.Second)
			g.Done()
			scavDone++
			if !stop {
				spawnScav()
			}
		})
	}
	for i := 0; i < 3; i++ {
		spawnInter()
		spawnScav()
	}
	c.At(c.Now()+500*time.Second, func() { stop = true })
	c.RunFor()
	total := interDone + scavDone
	share := float64(scavDone) / float64(total)
	if share < 0.15 || share > 0.3 {
		t.Fatalf("scavenger share = %.3f (%d/%d), want ~0.2 despite strict interactive priority",
			share, scavDone, total)
	}
	scav, tot := s.ContentionStats()
	if tot == 0 || float64(scav)/float64(tot) < 0.15 {
		t.Fatalf("contention ledger: %d/%d", scav, tot)
	}
}

func TestStarvationAndSLOCounters(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	s.SetLimit("test", 1)
	s.SetStarvationThreshold(5 * time.Second)
	s.SetSLO(Batch, 2*time.Second)
	st := s.Station("test")
	c.Go(func() {
		g := st.Admit(Item{QoS: QoS{Tenant: "hog", Class: Batch}})
		c.Sleep(10 * time.Second)
		g.Done()
	})
	c.Go(func() {
		c.Sleep(time.Second)
		g := st.Admit(Item{QoS: QoS{Tenant: "late", Class: Batch}}) // waits 9s
		g.Done()
	})
	c.RunFor()
	m := s.metrics()
	if v := m.starved[Batch].Value(); v != 1 {
		t.Fatalf("starvation counter = %v, want 1", v)
	}
	if v := m.sloViol[Batch].Value(); v != 1 {
		t.Fatalf("SLO violation counter = %v, want 1", v)
	}
	if p := m.wait[Batch].Quantile(0.99); p < 8 || p > 10 {
		t.Fatalf("p99 wait = %v s, want ~9", p)
	}
}

func TestTraceAndTenantStatsDeterministic(t *testing.T) {
	run := func() ([]dispatch, []TenantStat) {
		c := simtime.NewClock()
		s := Of(c)
		s.enableTrace()
		s.SetLimit("test", 2)
		st := s.Station("test")
		var order []string
		for _, tn := range []string{"c", "a", "b", "a", "c", "b", "a"} {
			tn := tn
			runItem(c, st, Item{QoS: QoS{Tenant: tn, Class: Batch}, Kind: "k", Units: 7}, 3*time.Second, &order)
		}
		c.RunFor()
		return s.traceLog(), s.TenantStats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("dispatch trace differs across identical runs:\n%v\n%v", t1, t2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("tenant stats differ across identical runs")
	}
	if len(t1) != 7 {
		t.Fatalf("trace has %d dispatches, want 7", len(t1))
	}
}

// enableTrace starts recording every admission decision.
func (s *Scheduler) enableTrace() { s.traceOn = true }

// traceLog returns the admission decisions recorded since enableTrace.
func (s *Scheduler) traceLog() []dispatch { return s.trace }

// queued totals items waiting for admission across all stations.
func (s *Scheduler) queued() int {
	n := 0
	for _, st := range s.stations {
		n += st.queued
	}
	return n
}
