// Package cluster models the File Transfer Agent (FTA) cluster and the
// network fabric of the paper's deployment (Fig. 7): ten x64 data-mover
// nodes that mount both the scratch and archive file systems, each with
// a 10-gigabit Ethernet NIC and an FC4 SAN HBA, joined to the compute
// side by two 10GigE trunk links; plus the MPI machine list PFTool
// launches onto (§4.1.2).
package cluster

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simtime"
)

// Node is one FTA machine.
type Node struct {
	Name string
	nic  *fabric.Link // Ethernet toward the scratch file system
	slot *simtime.Resource
	down bool // crashed: daemons abort, the machine list skips it
}

// SetDown crashes (or reboots) the node. Daemons running on the node
// observe Down at their decision points and abort; the machine list
// drops down nodes until repair.
func (n *Node) SetDown(down bool) { n.down = down }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// NIC returns the node's Ethernet link.
func (n *Node) NIC() *fabric.Link { return n.nic }

// Slots returns the node's process-slot resource, bounding concurrent
// mover processes per machine.
func (n *Node) Slots() *simtime.Resource { return n.slot }

// Config sizes a cluster.
type Config struct {
	Nodes     int
	NICRate   float64 // per-node Ethernet, bytes/s
	HBARate   float64 // per-node FC, bytes/s
	TrunkRate float64 // shared scratch<->archive trunk, bytes/s
	NodeSlots int     // concurrent mover processes per node
	// Site, when set, prefixes the trunk, LAN hub and machine names
	// (east-trunk, east-fta01) for one site of several on a clock.
	Site string
}

// RoadrunnerConfig returns the paper's deployment: 10 FTA nodes, 10GigE
// NICs, FC4 HBAs, and two 10GigE trunk links. The trunk's usable rate
// is ~75% of the raw 2x1250 MB/s — the ceiling the paper observed
// ("almost ~75% bandwidth utilization from two 10Gigabit Ethernet
// trunk", best job 1868 MB/s).
func RoadrunnerConfig() Config {
	return Config{
		Nodes:     10,
		NICRate:   1.18e9, // one 10GigE, usable
		HBARate:   400e6,  // FC4
		TrunkRate: 1.87e9, // two 10GigE trunks at ~75% protocol efficiency
		NodeSlots: 16,
	}
}

// Cluster is the FTA cluster plus its slice of the data-path fabric.
type Cluster struct {
	nodes []*Node
	trunk *fabric.Link
}

// New builds a cluster from cfg, wiring its links into the clock's
// shared fabric graph:
//
//	compute ──trunk── fta-lan ──<node>-nic── <node> ──<node>-hba── san
//	                                                 │
//	                                           (wire) clients
//
// The trunk joins the compute side to the cluster's LAN hub; each node
// hangs off the hub by its NIC and reaches the SAN by its HBA. A free
// wire joins every node to the well-known clients hub where
// archive-side file systems attach, so pool<->node hops cost only the
// pool array — matching the paper's topology where FTA nodes mount the
// archive FS directly over the SAN fabric.
func New(clock *simtime.Clock, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if cfg.NodeSlots <= 0 {
		cfg.NodeSlots = 1
	}
	prefix := ""
	if cfg.Site != "" {
		prefix = cfg.Site + "-"
	}
	fab := fabric.Of(clock)
	lan := prefix + "fta-lan"
	c := &Cluster{
		trunk: fab.AddLink(prefix+"trunk", cfg.TrunkRate, fabric.Compute, lan),
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("%sfta%02d", prefix, i+1)
		c.nodes = append(c.nodes, &Node{
			Name: name,
			nic:  fab.AddLink(name+"-nic", cfg.NICRate, lan, name),
			slot: simtime.NewResource(clock, cfg.NodeSlots),
		})
		fab.AddLink(name+"-hba", cfg.HBARate, name, fabric.SAN) // FC toward the SAN (archive disk, tape)
		fab.Wire(name, fabric.Clients)
	}
	return c
}

// Nodes returns the cluster's nodes in fixed order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Trunk returns the shared scratch<->archive trunk link.
func (c *Cluster) Trunk() *fabric.Link { return c.trunk }

// MachineList returns the MPI machine list for a PFTool launch: the up
// nodes in creation order, which New's %02d numbering makes name order
// below 100 nodes. Crashed nodes are dropped, so a new launch never
// lands MPI processes on a machine already known dead. If every node is
// down the full list is returned so callers keep a well-formed (if
// doomed) allocation rather than an empty one.
func (c *Cluster) MachineList() []*Node {
	up := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.down {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		return append([]*Node(nil), c.nodes...)
	}
	return up
}
