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
	if cl.nodes[0].Name != "fta01" || cl.nodes[9].Name != "fta10" {
		t.Errorf("names = %s..%s", cl.nodes[0].Name, cl.nodes[9].Name)
	}
	if cl.Trunk().Capacity() != 1.87e9 {
		t.Errorf("trunk rate = %v", cl.Trunk().Capacity())
	}
}

func TestTrunkSharedAcrossNodes(t *testing.T) {
	c := simtime.NewClock()
	cl := New(c, RoadrunnerConfig())
	fab := cl.fab
	// 10 nodes each pulling 1.87 GB across the trunk: the trunk carries
	// 18.7 GB total at 1.87 GB/s -> ~10s, not ~1s.
	for i := 0; i < 10; i++ {
		node := cl.nodes[i].Name
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
		p, err := cl.fab.Route(fabric.Compute, "", cl.nodes[0].Name)
		if err != nil {
			t.Error(err)
			return
		}
		cl.fab.Transfer(p, 1.18e9)
	})
	end := c.RunFor()
	if end < 900*time.Millisecond || end > 1100*time.Millisecond {
		t.Errorf("end = %v, want ~1s (NIC-bound)", end)
	}
}

func TestNodeSlotsBound(t *testing.T) {
	c := simtime.NewClock()
	cfg := RoadrunnerConfig()
	cfg.NodeSlots = 2
	cl := New(c, cfg)
	n := cl.nodes[0]
	var done int
	for i := 0; i < 4; i++ {
		c.Go(func() {
			n.Slots().Acquire(1)
			c.Sleep(time.Second)
			n.Slots().Release(1)
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
	cl := New(c, Config{Nodes: 3, NICRate: 1e9, HBARate: 4e8, TrunkRate: 2e9, NodeSlots: 4})
	list := cl.MachineList()
	if len(list) != 3 {
		t.Fatalf("list = %d nodes, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Errorf("machine list not in name order: %s before %s", list[i-1].Name, list[i].Name)
		}
	}
	cl.nodes[1].SetDown(true)
	list = cl.MachineList()
	if len(list) != 2 {
		t.Fatalf("list with one node down = %d, want 2", len(list))
	}
	for _, n := range list {
		if n.Down() {
			t.Errorf("down node %s in machine list", n.Name)
		}
	}
	// All down: fall back to the full list rather than an empty one.
	for _, n := range cl.Nodes() {
		n.SetDown(true)
	}
	if got := len(cl.MachineList()); got != 3 {
		t.Errorf("all-down fallback = %d nodes, want 3", got)
	}
	// Repair brings nodes back immediately.
	cl.nodes[1].SetDown(false)
	list = cl.MachineList()
	if len(list) != 1 || list[0] != cl.nodes[1] {
		t.Errorf("after repair list = %v, want just fta02", list)
	}
}
