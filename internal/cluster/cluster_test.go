package cluster

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simtime"
)

func TestNewClusterShape(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	if len(cl.Nodes()) != 10 {
		t.Errorf("nodes = %d, want 10", len(cl.Nodes()))
	}
	if cl.Node(0).Name != "fta01" || cl.Node(9).Name != "fta10" {
		t.Errorf("names = %s..%s", cl.Node(0).Name, cl.Node(9).Name)
	}
	if cl.Trunk().Capacity() != 1.87e9 {
		t.Errorf("trunk rate = %v", cl.Trunk().Capacity())
	}
}

func TestTrunkSharedAcrossNodes(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	fab := cl.Fabric()
	// 10 nodes each pulling 1.87 GB across the trunk: the trunk carries
	// 18.7 GB total at 1.87 GB/s -> ~10s, not ~1s.
	for i := 0; i < 10; i++ {
		node := cl.Node(i).Name
		c.Go(func() {
			p, err := fab.Route(fabric.Compute, "", node)
			if err != nil {
				t.Error(err)
				return
			}
			fab.Transfer(p, 1870e6)
		})
	}
	end := c.RunFor()
	if end < 9*time.Second || end > 12*time.Second {
		t.Errorf("end = %v, want ~10s (trunk-bound)", end)
	}
	if got := cl.Trunk().Stats().Bytes; got < 18.6e9 || got > 18.8e9 {
		t.Errorf("trunk carried %v bytes, want 18.7e9", got)
	}
}

func TestNICBoundWhenTrunkIdle(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	// One node alone: its NIC (1.18 GB/s) binds before the trunk.
	c.Go(func() {
		p, err := cl.Fabric().Route(fabric.Compute, "", cl.Node(0).Name)
		if err != nil {
			t.Error(err)
			return
		}
		cl.Fabric().Transfer(p, 1.18e9)
	})
	end := c.RunFor()
	if end < 900*time.Millisecond || end > 1100*time.Millisecond {
		t.Errorf("end = %v, want ~1s (NIC-bound)", end)
	}
}

func TestLoadManagerSortsAscending(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	lm := NewLoadManager(c, cl, time.Minute)
	c.Go(func() {
		for i, n := range cl.Nodes() {
			n.SetLoad(float64(2 + i)) // fta01..fta10 = 2..11
		}
		cl.Node(0).SetLoad(5)
		cl.Node(1).SetLoad(1)
		cl.Node(2).SetLoad(3)
		list := lm.MachineList()
		if list[0].Name != "fta02" {
			t.Errorf("least loaded = %s, want fta02", list[0].Name)
		}
		if list[len(list)-1].Name != "fta10" {
			t.Errorf("most loaded = %s, want fta10", list[len(list)-1].Name)
		}
	})
	c.RunFor()
}

func TestLoadManagerCachesWithinPeriod(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	lm := NewLoadManager(c, cl, time.Minute)
	c.Go(func() {
		first := lm.MachineList()
		cl.Node(int(0)).SetLoad(100) // changes load, but within the period
		second := lm.MachineList()
		if first[0] != second[0] {
			t.Error("list changed within refresh period")
		}
		c.Sleep(2 * time.Minute)
		third := lm.MachineList()
		if third[len(third)-1].Name != "fta01" {
			t.Error("refresh after period did not re-sort")
		}
	})
	c.RunFor()
}

func TestPickCycles(t *testing.T) {
	c := simtime.NewClock()
	cfg := RoadrunnerConfig()
	cfg.Nodes = 3
	cl := New(c, cfg)
	lm := NewLoadManager(c, cl, time.Minute)
	c.Go(func() {
		picked := lm.Pick(7)
		if len(picked) != 7 {
			t.Fatalf("picked %d, want 7", len(picked))
		}
		if picked[0] != picked[3] || picked[1] != picked[4] {
			t.Error("Pick should cycle through the machine list")
		}
	})
	c.RunFor()
}

func TestNodeSlotsBound(t *testing.T) {
	c := simtime.NewClock()
	cfg := RoadrunnerConfig()
	cfg.NodeSlots = 2
	cl := New(c, cfg)
	n := cl.Node(0)
	var done int
	for i := 0; i < 4; i++ {
		c.Go(func() {
			n.Slots().Use(1, func() { c.Sleep(time.Second) })
			done++
		})
	}
	end := c.RunFor()
	if done != 4 {
		t.Errorf("done = %d, want 4", done)
	}
	if end != 2*time.Second {
		t.Errorf("end = %v, want 2s (2 slots x 2 waves)", end)
	}
}

func TestMachineListSkipsDownNodes(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, Config{Nodes: 3, NICRate: 1e9, HBARate: 4e8, TrunkRate: 2e9, NodeSlots: 4, NamePrefix: "fta"})
	lm := NewLoadManager(c, cl, time.Minute)
	if got := len(lm.MachineList()); got != 3 {
		t.Fatalf("list = %d nodes, want 3", got)
	}
	cl.Node(1).SetDown(true)
	list := lm.MachineList()
	if len(list) != 2 {
		t.Fatalf("list with one node down = %d, want 2", len(list))
	}
	for _, n := range list {
		if n.Down() {
			t.Errorf("down node %s in machine list", n.Name)
		}
	}
	// Pick still cycles over the survivors only.
	for _, n := range lm.Pick(4) {
		if n.Down() {
			t.Errorf("Pick placed work on down node %s", n.Name)
		}
	}
	// All down: fall back to the full list rather than an empty one.
	for _, n := range cl.Nodes() {
		n.SetDown(true)
	}
	if got := len(lm.MachineList()); got != 3 {
		t.Errorf("all-down fallback = %d nodes, want 3", got)
	}
	// Repair brings nodes back immediately.
	cl.Node(1).SetDown(false)
	list = lm.MachineList()
	if len(list) != 1 || list[0] != cl.Node(1) {
		t.Errorf("after repair list = %v, want just fta02", list)
	}
}
