package fabric

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// build creates the canonical two-hub topology used across the tests:
//
//	src ──array(1000)── compute ──trunk(300)── lan ──nicA(200)── a
//	                                            └───nicB(200)── b
func build(c *simtime.Clock) *Fabric {
	f := New(c)
	f.AddLink("array", 1000, "src", Compute)
	f.AddLink("trunk", 300, Compute, "lan")
	f.AddLink("nicA", 200, "lan", "a")
	f.AddLink("nicB", 200, "lan", "b")
	return f
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestRouteResolvesHops(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	p, err := f.Route("src", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"array", "trunk", "nicA", "nicA", "nicB"}
	got := p.Names()
	if len(got) != len(want) {
		t.Fatalf("route = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("route = %v, want %v", got, want)
		}
	}
	if _, err := f.Route("src", "", "nowhere"); err == nil {
		t.Fatal("expected unknown-endpoint error")
	}
}

func TestRouteWirePreferred(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	f.Wire("a", Clients)
	f.AddLink("pool", 500, "fs:fast", Clients)
	p, err := f.Route("fs:fast", "a", "lan")
	if err != nil {
		t.Fatal(err)
	}
	// fs:fast -> clients (pool) -> a (wire, free) -> lan (nicA).
	got := p.Names()
	want := []string{"pool", "nicA"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("route = %v, want %v", got, want)
	}
}

func TestRouteAvoidRoutesAroundLinks(t *testing.T) {
	c := simtime.NewClock()
	f := New(c)
	// Triangle of WAN trunks: a direct east link and a two-hop detour
	// through west.
	f.AddLink("wan-east", 100, "site:A", "site:B")
	f.AddLink("wan-west", 100, "site:A", "site:C")
	f.AddLink("wan-south", 100, "site:C", "site:B")

	direct, err := f.RouteAvoid("site:A", "site:B", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := direct.Names(); len(got) != 1 || got[0] != "wan-east" {
		t.Fatalf("nil avoid route = %v, want [wan-east]", got)
	}

	dead := map[string]bool{"wan-east": true}
	detour, err := f.RouteAvoid("site:A", "site:B", func(l *Link) bool { return dead[l.Name()] })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"wan-west", "wan-south"}
	got := detour.Names()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("avoiding route = %v, want %v", got, want)
	}

	dead["wan-west"] = true
	if _, err := f.RouteAvoid("site:A", "site:B", func(l *Link) bool { return dead[l.Name()] }); err == nil {
		t.Fatal("expected no-route error when every path is avoided")
	}
}

func TestSingleFlowBottleneck(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, _ := f.Route("src", "", "a")
		start := c.Now()
		f.Transfer(p, 600) // bottleneck nicA at 200 B/s -> 3s
		near(t, "duration", (c.Now() - start).Seconds(), 3.0, 0.01)
	})
	c.RunFor()
	// The flow ran at 200 B/s end to end: the fast hops carried only
	// what the bottleneck admitted, and every hop saw the same bytes.
	for _, name := range []string{"array", "trunk", "nicA"} {
		near(t, name+" bytes", linkSeries(f, "bytes_total", name), 600, 1)
	}
	if got := linkSeries(f, "bytes_total", "nicB"); got != 0 {
		t.Fatalf("nicB carried %v bytes, want 0", got)
	}
}

func TestMaxMinCoupledSharing(t *testing.T) {
	// Two flows share the trunk (300): each gets 150 until the flow to
	// "a" finishes, after which the survivor speeds up to 200 (its NIC).
	c := simtime.NewClock()
	f := build(c)
	var doneA, doneB simtime.Duration
	c.Go(func() {
		pa, _ := f.Route("src", "", "a")
		fl := f.Start(pa, 300) // 300 bytes at 150 B/s -> 2s
		fl.Wait()
		doneA = c.Now()
	})
	c.Go(func() {
		pb, _ := f.Route("src", "", "b")
		// 600 bytes: 2s at 150 (300 moved), then 300 left at 200 -> 1.5s.
		f.Transfer(pb, 600)
		doneB = c.Now()
	})
	c.RunFor()
	near(t, "flow A finish", doneA.Seconds(), 2.0, 0.01)
	near(t, "flow B finish", doneB.Seconds(), 3.5, 0.01)
	near(t, "trunk bytes", linkSeries(f, "bytes_total", "trunk"), 900, 1)
	if got := linkSeries(f, "peak_flows", "trunk"); got != 2 {
		t.Fatalf("trunk peak flows = %v, want 2", got)
	}
}

func TestPerFlowCap(t *testing.T) {
	// A capped flow leaves its unused share to the uncapped one: caps
	// participate in the max-min allocation instead of sleeping post hoc.
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, _ := f.Route("src", "", "a")
		start := c.Now()
		f.start(p, 100, 50).Wait() // 100 bytes at 50 B/s -> 2s
		near(t, "capped duration", (c.Now() - start).Seconds(), 2.0, 0.01)
	})
	c.Go(func() {
		p, _ := f.Route("src", "", "b")
		start := c.Now()
		// Trunk leaves 300-50=250, NIC B caps at 200: 400 bytes -> 2s.
		f.Transfer(p, 400)
		near(t, "uncapped duration", (c.Now() - start).Seconds(), 2.0, 0.01)
	})
	c.RunFor()
}

func TestCrossingMultiplicity(t *testing.T) {
	// A route crossing the same link twice consumes 2x its rate there:
	// a bounce through the NIC hub halves the effective bandwidth.
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, err := f.Route("a", "lan", "a") // nicA out and back
		if err != nil {
			t.Error(err)
			return
		}
		start := c.Now()
		f.Transfer(p, 200) // rate = 200/2 = 100 B/s -> 2s
		near(t, "bounce duration", (c.Now() - start).Seconds(), 2.0, 0.01)
	})
	c.RunFor()
	near(t, "nicA bytes", linkSeries(f, "bytes_total", "nicA"), 400, 1)
}

func TestSetCapacityMidFlight(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, _ := f.Route("src", "", "a")
		start := c.Now()
		// 1s at 200, then the NIC halves: 200 left at 100 -> 2s more.
		f.Transfer(p, 400)
		near(t, "degraded duration", (c.Now() - start).Seconds(), 3.0, 0.01)
	})
	c.At(c.Now()+time.Second, func() { f.Link("nicA").scale(0.5) })
	c.RunFor()
	if got := f.Link("nicA").Capacity(); got != 100 {
		t.Fatalf("capacity after scale = %v, want 100", got)
	}
	f.Link("nicA").scale(1)
	if got := f.Link("nicA").Capacity(); got != 200 {
		t.Fatalf("capacity after repair = %v, want 200", got)
	}
}

func TestBindFaultsDrivesLinksByName(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	reg := faults.New(c)
	f.BindFaults(reg)
	c.Go(func() {
		reg.Apply(faults.Event{Component: faults.LinkComponent("trunk"), Kind: faults.KindDegrade, Param: 0.5})
		if got := f.Link("trunk").Capacity(); got != 150 {
			t.Errorf("degraded trunk = %v, want 150", got)
		}
		reg.Apply(faults.Event{Component: faults.LinkComponent("trunk"), Kind: faults.KindFail})
		if got := f.Link("trunk").Capacity(); got != 3 {
			t.Errorf("failed trunk = %v, want 3 (1%% crawl)", got)
		}
		reg.Apply(faults.Event{Component: faults.LinkComponent("trunk"), Kind: faults.KindRepair})
		if got := f.Link("trunk").Capacity(); got != 300 {
			t.Errorf("repaired trunk = %v, want 300", got)
		}
		// Unknown links are ignored.
		reg.Apply(faults.Event{Component: faults.LinkComponent("elsewhere"), Kind: faults.KindFail})
	})
	c.RunFor()
}

func TestEmptyAndInstantFlows(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, err := f.Route("src", "", "src")
		if err != nil || !p.Empty() {
			t.Errorf("self route: %v, empty=%v", err, p.Empty())
		}
		start := c.Now()
		f.Transfer(p, 1e12) // empty path: instantaneous
		pa, _ := f.Route("src", "", "a")
		f.Transfer(pa, 0) // zero bytes: instantaneous
		if c.Now() != start {
			t.Errorf("instant flows advanced time by %v", c.Now()-start)
		}
	})
	c.RunFor()
}

func TestTransferredProgressSampling(t *testing.T) {
	// Pull-based progress: a single long flow reports bytes moved even
	// though it generates no settle events of its own.
	c := simtime.NewClock()
	f := build(c)
	var fl *Flow
	c.Go(func() {
		p, _ := f.Route("src", "", "a")
		fl = f.Start(p, 2000) // 200 B/s -> 10s
		fl.Wait()
	})
	c.At(c.Now()+3*time.Second, func() {
		got := fl.Transferred()
		if got < 590 || got > 610 {
			t.Errorf("Transferred at 3s = %d, want ~600", got)
		}
		if fl.done {
			t.Error("flow done at 3s")
		}
	})
	c.RunFor()
	if !fl.done || fl.Transferred() != 2000 {
		t.Fatalf("final: done=%v transferred=%d", fl.done, fl.Transferred())
	}
}

func TestDuplicateLinkNamePanics(t *testing.T) {
	c := simtime.NewClock()
	f := New(c)
	a := f.AddLink("nic", 100, "x", "y")
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), `duplicate link name "nic"`) {
			t.Errorf("second AddLink(nic) recovered %v, want a duplicate-name panic", r)
		}
		if f.Link("nic") != a {
			t.Error("the first link no longer answers to its name")
		}
	}()
	f.AddLink("nic", 100, "x", "z")
}

func TestOfSharedPerClock(t *testing.T) {
	c1, c2 := simtime.NewClock(), simtime.NewClock()
	if Of(c1) != Of(c1) {
		t.Fatal("Of not stable per clock")
	}
	if Of(c1) == Of(c2) {
		t.Fatal("Of shared across clocks")
	}
}

func TestUtilizationAndBusy(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	c.Go(func() {
		p, _ := f.Route("src", "", "a")
		f.Transfer(p, 400) // 2s busy at full NIC rate
		c.Sleep(2 * time.Second)
	})
	end := c.RunFor()
	utilization := linkSeries(f, "bytes_total", "nicA") / (linkSeries(f, "nominal_bytes_per_second", "nicA") * end.Seconds())
	near(t, "nicA utilization", utilization, 0.5, 0.01) // 400 of 200*4
	near(t, "nicA busy fraction", linkSeries(f, "busy_seconds_total", "nicA")/end.Seconds(), 0.5, 0.01)
}

func TestArmCorruptTaintsNextFlow(t *testing.T) {
	c := simtime.NewClock()
	f := build(c)
	reg := faults.New(c)
	f.BindFaults(reg)
	tel := telemetry.Of(c)
	c.Go(func() {
		// Record the fault event first (as archive.InstallFaults does),
		// then apply: BindFaults picks the cause ID up from telemetry.
		evID := tel.Event("fault", "component", "link:trunk", "kind", "corrupt")
		reg.Apply(faults.Event{Component: "link:trunk", Kind: faults.KindCorrupt, Param: 2})
		if got := f.Link("trunk").ArmedCorruptions(); got != 2 {
			t.Errorf("armed = %d, want 2", got)
		}
		p, err := f.Route("src", "", "a")
		if err != nil {
			t.Fatal(err)
		}
		// First two flows tainted, third clean; capacity unaffected.
		for i := 0; i < 3; i++ {
			fl := f.Start(p, 1000)
			fl.Wait()
			cause, bad := fl.Tainted()
			if wantBad := i < 2; bad != wantBad {
				t.Errorf("flow %d tainted = %v, want %v", i, bad, wantBad)
			}
			if bad && cause != evID {
				t.Errorf("flow %d taint cause = %d, want %d", i, cause, evID)
			}
		}
		if got := f.Link("trunk").Capacity(); got != 300 {
			t.Errorf("corruption changed capacity to %g", got)
		}
		if got := f.Link("trunk").ArmedCorruptions(); got != 0 {
			t.Errorf("%d corruptions left armed", got)
		}
	})
	c.Run()
}

func buildWANFabric(clock *simtime.Clock) *Fabric {
	f := Of(clock)
	f.AddLink("lan", 1000, "src", "edge")
	f.AddLink("wan", 100, "edge", "far").SetLatency(simtime.Duration(50 * time.Millisecond))
	return f
}

func TestPathLookahead(t *testing.T) {
	clock := simtime.NewClock()
	f := buildWANFabric(clock)
	p, err := f.Route("src", "", "far")
	if err != nil {
		t.Fatal(err)
	}
	// Latency sum 50ms; fastest hop nominal 1000 B/s carries a 100-byte
	// quantum in 100ms.
	want := simtime.Duration(150 * time.Millisecond)
	if got := p.Lookahead(100); got != want {
		t.Errorf("Lookahead(100) = %v, want %v", got, want)
	}
	if got := p.Lookahead(0); got != simtime.Duration(50*time.Millisecond) {
		t.Errorf("Lookahead(0) = %v, want 50ms", got)
	}
	// Degrading a link must not shrink the bound (nominal is used).
	f.Link("lan").scale(0.1)
	if got := p.Lookahead(100); got != want {
		t.Errorf("degraded Lookahead(100) = %v, want %v", got, want)
	}
}

// TestSolveKeepsScratch holds the max-min solver to no allocations once
// its two scratch buffers have grown. Of two flows on separate links,
// the first pass freezes the slow link's flow while the other flow's
// cap sits above the share, and the second pass freezes that flow at
// its cap: the cap pass of the first must not grow a buffer it then
// drops.
func TestSolveKeepsScratch(t *testing.T) {
	c := simtime.NewClock()
	f := New(c)
	slow := f.AddLink("slow", 100, "src", "a")
	fast := f.AddLink("fast", 300, "src", "b")
	c.Go(func() {
		pa, _ := f.Route("src", "", "a")
		pb, _ := f.Route("src", "", "b")
		f.Start(pa, 1e6)
		f.start(pb, 1e6, 250)
		if n := testing.AllocsPerRun(100, func() { f.solve(f.flows, []*Link{slow, fast}) }); n != 0 {
			t.Errorf("solve allocates %v times per call, want 0", n)
		}
		near(t, "link-bound rate", f.flows[0].rate, 100, 1e-9)
		near(t, "capped rate", f.flows[1].rate, 250, 1e-9)
	})
	c.RunFor()
}

// linkSeries reads one of a link's fabric_link_* registry series; the
// byte and busy counters settle the fabric first.
func linkSeries(f *Fabric, name, link string) float64 {
	return telemetry.Of(f.clock).Snapshot().Value("fabric_link_"+name, "link", link)
}
