package experiments

import (
	"fmt"
	"math"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/pftool"
	"repro/internal/stats"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

// fabricBottleneck is E16: the data-path fabric bottleneck study. A
// fixed tree is archived with an increasing worker count; every byte of
// every transfer is accounted on the fabric links it crosses, so the
// study can name the binding link at each point instead of inferring
// it. With few workers the per-stream ceiling (800 MB/s) and the worker
// node's NIC bind; as workers spread across the FTA cluster the
// aggregate saturates at the two-trunk ceiling of 1.87 GB/s — the
// paper's "almost ~75% bandwidth utilization from two 10Gigabit
// Ethernet trunk". The run panics if per-link accounting fails to
// conserve bytes or the plateau misses the trunk ceiling: those are
// invariants of the fabric, not tunables.
func fabricBottleneck(seed int64) Report {
	return fabricBottleneckWith(seed, 64, 4e9, []int{1, 2, 4, 8, 16, 32})
}

// fabricBottleneckWith runs E16 for one tree shape across worker counts.
func fabricBottleneckWith(seed int64, files int, fileSize int64, workers []int) Report {
	const trunkRate = 1.87e9
	type point struct {
		rate    float64 // aggregate bytes/s
		bottle  string  // highest-utilization link
		bottleU float64
		trunkU  float64
		trunkGB float64
		snap    *telemetry.Snapshot
	}
	runWith := func(nw int) point {
		var res pftool.Result
		var nodes []*cluster.Node
		run := runSystem(nil, func(sys *archive.System) {
			nodes = sys.Cluster.Nodes()
			sys.Scratch.MkdirAll("/src")
			for i := 0; i < files; i++ {
				sys.Scratch.WriteFile(fmt.Sprintf("/src/f%03d", i), synthetic.NewUniform(uint64(seed)+uint64(i), fileSize))
			}
			tun := pftool.DefaultTunables()
			tun.NumWorkers = nw
			var err error
			res, err = sys.Pfcp("/src", "/dst", tun)
			if err != nil {
				panic(err)
			}
		})
		end, snap := run.end, run.snap
		if res.FilesCopied != files {
			panic(fmt.Sprintf("fabric study: copied %d of %d files", res.FilesCopied, files))
		}
		// Every headline number below is read from the telemetry
		// registry snapshot, not the subsystem structs (lint_test.go
		// enforces the split): the pfcp byte counter gives the rate, and
		// the fabric_link_* families give conservation and bottleneck.
		copied := snap.Value("pftool_bytes_copied_total", "op", "pfcp")
		// Invariant: per-link accounting conserves bytes. Every copied
		// byte crosses the trunk exactly once and exactly one node NIC,
		// so the trunk's byte counter and the NICs' sum must both equal
		// the copied bytes to the float tolerance of the scheduler.
		trunkBytes := snap.Value("fabric_link_bytes_total", "link", "trunk")
		nicNames := make(map[string]bool)
		for _, n := range nodes {
			nicNames[n.NIC().Stats().Name] = true
		}
		var nicBytes float64
		for _, p := range snap.Family("fabric_link_bytes_total") {
			if nicNames[p.Label("link")] {
				nicBytes += p.Value
			}
		}
		if math.Abs(trunkBytes-copied) > 1 || math.Abs(nicBytes-copied) > 1 {
			panic(fmt.Sprintf("fabric study: conservation violated: copied %.0f, trunk %.0f, nics %.0f",
				copied, trunkBytes, nicBytes))
		}
		// Name the bottleneck: the link with the highest utilization
		// (bytes carried against nominal capacity over the run).
		utilization := func(link string) float64 {
			nominal := snap.Value("fabric_link_nominal_bytes_per_second", "link", link)
			if nominal <= 0 || end <= 0 {
				return 0
			}
			return snap.Value("fabric_link_bytes_total", "link", link) / (nominal * end.Seconds())
		}
		// Rate: registry bytes over the run's manager-recorded duration
		// (Started..Finished excludes the watchdog's final sleep tick,
		// which is idle tail, not transfer time).
		pt := point{trunkU: utilization("trunk"), trunkGB: trunkBytes / 1e9, snap: snap}
		if secs := res.Elapsed().Seconds(); secs > 0 {
			pt.rate = copied / secs
		}
		for _, p := range snap.Family("fabric_link_bytes_total") {
			link := p.Label("link")
			if u := utilization(link); u > pt.bottleU {
				pt.bottleU, pt.bottle = u, link
			}
		}
		return pt
	}

	t := stats.NewTable("workers", "MB/s", "bottleneck", "util", "trunk util", "trunk GB")
	r := Report{
		Name:  "fabric",
		Title: fmt.Sprintf("Data-path fabric bottleneck study: %d x %d GB files vs worker count", files, fileSize/1e9),
	}
	var plateau float64
	var lastSnap *telemetry.Snapshot
	for _, nw := range workers {
		pt := runWith(nw)
		lastSnap = pt.snap
		t.Row(nw, pt.rate/1e6, pt.bottle, fmt.Sprintf("%.2f", pt.bottleU),
			fmt.Sprintf("%.2f", pt.trunkU), fmt.Sprintf("%.1f", pt.trunkGB))
		r.metric(fmt.Sprintf("mbs_w%d", nw), pt.rate/1e6)
		r.metric(fmt.Sprintf("trunk_util_w%d", nw), pt.trunkU)
		if nw >= 8 {
			// Invariant: the aggregate saturates at the trunk ceiling —
			// within protocol slop, never above it — and the accounting
			// names the trunk as the binding link.
			if pt.rate < 0.8*trunkRate || pt.rate > 1.01*trunkRate {
				panic(fmt.Sprintf("fabric study: %d workers ran at %.0f MB/s, expected ~%.0f (trunk-bound)",
					nw, pt.rate/1e6, trunkRate/1e6))
			}
			if pt.bottle != "trunk" {
				panic(fmt.Sprintf("fabric study: %d workers bottlenecked on %q, expected trunk", nw, pt.bottle))
			}
			if plateau == 0 {
				plateau = pt.rate
			}
		}
	}
	r.metric("trunk_ceiling_mbs", trunkRate/1e6)
	r.metric("plateau_mbs", plateau/1e6)
	r.Telemetry = lastSnap
	r.Body = t.String()
	r.Notes = append(r.Notes,
		"few workers: the 800 MB/s per-stream ceiling and the worker's NIC bind",
		fmt.Sprintf("many workers: aggregate saturates at the two-trunk ceiling (%.2f GB/s), per-link accounting names the trunk", trunkRate/1e9),
		"invariant checked: trunk bytes == sum of NIC bytes == bytes copied (exact per-link conservation)")
	return r
}
