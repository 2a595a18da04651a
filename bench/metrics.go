package main

import (
	"sort"
)

// Two kinds of number are kept apart everywhere. Host numbers are what
// the simulator costs (seconds, CPU, allocations, RSS): noisy, compared
// on a bound. Simulated numbers are what the modelled archive did
// (virtual MB/s, events, flows, mounts): exact at a seed, compared
// exactly — a change that is "only faster" leaves every one identical.
const (
	kindHost  = "host"  // measured on the host, end to end or around a run
	kindSim   = "sim"   // virtual-side occupancy or rate, exact at a seed
	kindCount = "count" // work done, read after the run, exact at a seed
	kindProbe = "probe" // host ns per call from a micro-driver of one layer
	kindSpan  = "span"  // host time from the traced run's spans
	kindEst   = "est"   // count x probe ns / wall_s: an estimate, not a measurement
)

type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Kind   string
}

// exact reports whether two runs at one seed must agree on the metric.
func (m metricDecl) exact() bool { return m.Kind == kindSim || m.Kind == kindCount }

// endToEnd are the metrics BENCHMARK.json bounds. Every workload
// reports every one and none can be zero. The suite adds paper_err_pct
// (where the paper gives a reference) and fail_ratio (always 0 on a
// passing run), which the contract's schema cannot carry.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", kindHost},
	{"wall_s", "s", "lower", kindHost},
	{"cpu_s", "s", "lower", kindHost},
	{"peak_rss_mb", "MB", "lower", kindHost},
	{"allocs_per_file", "count", "lower", kindHost},
	{"alloc_bytes_per_file", "B", "lower", kindHost},
	{"virt_mbs", "MB/s", "higher", kindSim},
}

// endToEndValues extracts the end-to-end metrics of one untraced run.
func endToEndValues(r *runResult) map[string]float64 {
	files := float64(max(r.Files, 1))
	return map[string]float64{
		"setup_s":              r.SetupS,
		"wall_s":               r.Host.WallS,
		"cpu_s":                r.Host.CPUS,
		"peak_rss_mb":          r.PeakRSSMB,
		"allocs_per_file":      float64(r.Host.Mallocs) / files,
		"alloc_bytes_per_file": float64(r.Host.AllocBytes) / files,
		"virt_mbs":             r.VirtMBs,
	}
}

// perLayer declares every per-layer metric, named <module>.<name>. The
// traced run of every workload emits every one (0 where the layer did
// not run), so that "tsm.stores = 0 on pfcp-*" is a printed number.
// Counts of work done (events, flows, stores, mounts, ...) cover the
// timed call alone; levels (series, rows, live objects, peak inodes)
// are read when it ends.
var perLayer = []metricDecl{
	{"simtime.events", "count", "lower", kindCount},
	{"simtime.events_per_file", "count", "lower", kindCount},
	{"simtime.ns_per_event", "ns", "lower", kindHost},
	{"simtime.probe_sleep_ns", "ns", "lower", kindProbe},
	{"simtime.probe_callback_ns", "ns", "lower", kindProbe},
	{"simtime.probe_queue_handoff_ns", "ns", "lower", kindProbe},
	{"simtime.est_share", "ratio", "lower", kindEst},
	{"simtime.island_events", "count", "lower", kindCount},
	{"simtime.island_null_messages", "count", "lower", kindHost},
	{"simtime.island_fast_forwards", "count", "lower", kindHost},
	{"simtime.island_busy_s", "s", "lower", kindHost},
	{"simtime.island_efficiency", "ratio", "higher", kindHost},
	{"simtime.island_imbalance", "ratio", "lower", kindHost},
	{"simtime.island_speedup", "ratio", "higher", kindHost},

	{"fabric.flows", "count", "lower", kindCount},
	{"fabric.flows_per_file", "count", "lower", kindCount},
	{"fabric.probe_transfer_ns", "ns", "lower", kindProbe},
	{"fabric.probe_stream_send_ns", "ns", "lower", kindProbe},
	{"fabric.trunk_util", "ratio", "higher", kindSim},
	{"fabric.trunk_bytes", "B", "lower", kindSim},
	{"fabric.est_share", "ratio", "lower", kindEst},

	{"sched.submitted", "count", "lower", kindCount},
	{"sched.dispatched", "count", "lower", kindCount},
	{"sched.shed", "count", "lower", kindCount},
	{"sched.deadline_exceeded", "count", "lower", kindCount},
	{"sched.probe_admit_ns", "ns", "lower", kindProbe},
	{"sched.probe_passthrough_ns", "ns", "lower", kindProbe},
	{"sched.wait_p50_s", "s", "lower", kindSim},
	{"sched.wait_p99_s", "s", "lower", kindSim},
	{"sched.est_share", "ratio", "lower", kindEst},

	{"telemetry.series", "count", "lower", kindCount},
	{"telemetry.probe_counter_add_ns", "ns", "lower", kindProbe},
	{"telemetry.probe_histogram_observe_ns", "ns", "lower", kindProbe},
	{"telemetry.probe_span_ns", "ns", "lower", kindProbe},
	{"telemetry.snapshot_ms", "ms", "lower", kindHost},

	{"vfs.probe_create_ns", "ns", "lower", kindProbe},
	{"vfs.probe_stat_ns", "ns", "lower", kindProbe},
	{"vfs.probe_readdir_ns_per_entry", "ns", "lower", kindProbe},
	{"vfs.probe_remove_all_ns_per_inode", "ns", "lower", kindProbe},
	{"vfs.heap_bytes_per_inode", "B", "lower", kindHost},

	{"pfs.probe_write_files_ns", "ns", "lower", kindProbe},
	{"pfs.probe_read_content_ns", "ns", "lower", kindProbe},
	{"pfs.probe_stat_ns", "ns", "lower", kindProbe},
	{"pfs.probe_scan_ns_per_inode", "ns", "lower", kindProbe},
	{"pfs.probe_punch_restore_ns", "ns", "lower", kindProbe},
	{"pfs.remove_all_s", "s", "lower", kindSpan},
	{"pfs.inodes_peak", "count", "lower", kindCount},
	{"pfs.est_share", "ratio", "lower", kindEst},

	{"mpi.msgs", "count", "lower", kindCount},
	{"mpi.msgs_per_file", "count", "lower", kindCount},
	{"mpi.probe_send_recv_ns", "ns", "lower", kindProbe},
	{"mpi.est_share", "ratio", "lower", kindEst},

	{"pftool.pfcp_s", "s", "lower", kindSpan},
	{"pftool.pfcp_share", "ratio", "lower", kindSpan},
	{"pftool.chunks", "count", "lower", kindCount},
	{"pftool.files_restored", "count", "higher", kindCount},
	{"pftool.probe_pfls_ns_per_entry", "ns", "lower", kindProbe},

	{"hsm.migrate_s", "s", "lower", kindSpan},
	{"hsm.recall_s", "s", "lower", kindSpan},
	{"hsm.ns_per_file", "ns", "lower", kindSpan},
	{"hsm.migrated_files", "count", "higher", kindCount},
	{"hsm.recalled_files", "count", "higher", kindCount},
	{"hsm.requeued", "count", "lower", kindCount},

	{"tsm.transactions", "count", "lower", kindCount},
	{"tsm.stores", "count", "lower", kindCount},
	{"tsm.recalls", "count", "lower", kindCount},
	{"tsm.retries", "count", "lower", kindCount},
	{"tsm.objects_live", "count", "higher", kindCount},
	{"tsm.probe_store_ns", "ns", "lower", kindProbe},
	{"tsm.probe_recall_ns", "ns", "lower", kindProbe},
	{"tsm.est_share", "ratio", "lower", kindEst},

	{"tape.mounts", "count", "lower", kindSim},
	{"tape.seeks", "count", "lower", kindSim},
	{"tape.label_verifies", "count", "lower", kindSim},
	{"tape.robot_exchanges", "count", "lower", kindSim},
	{"tape.drive_util", "ratio", "higher", kindSim},
	{"tape.drive_mbs", "MB/s", "higher", kindSim},
	{"tape.stream_efficiency", "ratio", "higher", kindSim},
	{"tape.probe_append_ns", "ns", "lower", kindProbe},
	{"tape.probe_read_ns", "ns", "lower", kindProbe},
	{"tape.est_share", "ratio", "lower", kindEst},

	{"metadb.rows", "count", "lower", kindCount},
	{"metadb.rows_added", "count", "lower", kindCount},
	{"metadb.queries", "count", "lower", kindCount},
	{"metadb.probe_upsert_ns", "ns", "lower", kindProbe},
	{"metadb.probe_by_paths_ns", "ns", "lower", kindProbe},
	{"metadb.est_share", "ratio", "lower", kindEst},

	{"federation.manifests", "count", "higher", kindCount},
	{"federation.lag_mean_s", "s", "lower", kindSim},

	{"workload.build_ns_per_file", "ns", "lower", kindSpan},
	{"synthetic.probe_new_uniform_ns", "ns", "lower", kindProbe},

	{"goruntime.gc_cycles", "count", "lower", kindHost},
	{"goruntime.gc_cpu_s", "s", "lower", kindHost},
	{"goruntime.heap_live_mb", "MB", "lower", kindHost},

	{"bench.unattributed_share", "ratio", "lower", kindEst},
	{"bench.trace_overhead_pct", "%", "lower", kindHost},
	{"bench.paper_err_pct", "%", "lower", kindSim},
}

// noPaperReference is bench.paper_err_pct where the paper gives no
// figure to compare with: the workload is unvalidated at this scale.
const noPaperReference = -1

// layerMetrics assembles one workload's per-layer numbers: the traced
// run's counts and spans, the probes, and what derives from them.
// wallS is the untraced wall_s the shares refer to.
func layerMetrics(traced *runResult, probes map[string]float64, wallS float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range traced.Counts {
		m[k] = v
	}
	for k, v := range probes {
		m[k] = v
	}
	files := float64(max(traced.Files, 1))
	// The layers' spans are those of the timed call; building the input
	// is set-up on the tape workloads and is looked up in every span.
	sp := spansWithin(traced.Spans, spanTimed)

	if ev := m["simtime.events"]; ev > 0 {
		m["simtime.ns_per_event"] = wallS * 1e9 / ev
	}
	m["pftool.pfcp_s"] = spanSeconds(sp, "System.Pfcp") + spanSeconds(sp, "System.PfcpRetrieve")
	if traced.Host.WallS > 0 {
		m["pftool.pfcp_share"] = m["pftool.pfcp_s"] / traced.Host.WallS
		m["bench.trace_overhead_pct"] = (traced.Host.WallS/wallS - 1) * 100
	}
	m["pfs.remove_all_s"] = spanSeconds(sp, "Scratch.RemoveAll") + spanSeconds(sp, "Archive.RemoveAll")
	m["hsm.migrate_s"] = spanSeconds(sp, "HSM.Migrate")
	// Recalls run inside the retrieve: from outside the program the two
	// are one span (spans inside the program are a later issue).
	m["hsm.recall_s"] = spanSeconds(sp, "System.PfcpRetrieve")
	switch traced.Workload {
	case "tape-migrate":
		m["hsm.ns_per_file"] = m["hsm.migrate_s"] * 1e9 / files
	case "tape-recall":
		m["hsm.ns_per_file"] = m["hsm.recall_s"] * 1e9 / files
	}
	all := traced.Spans
	build := spanSeconds(all, "workload.BuildTree") + spanSeconds(all, "pfs.WriteFiles") + spanSeconds(all, "pfs.Stat")
	m["workload.build_ns_per_file"] = build * 1e9 / files
	m["bench.paper_err_pct"] = noPaperReference
	if traced.PaperErrPct != nil {
		m["bench.paper_err_pct"] = *traced.PaperErrPct
	}

	// est_share = count x probe ns / wall_s, counts over the timed call.
	// Tape recalls are one-shot flows, every other flow is a segment of
	// a persistent stream; pfs is costed at the pfcp shape (create, stat
	// and read at the source, create at the destination); tape's calls
	// are inside tsm's probes and simtime's events inside everyone's, so
	// those two shares are printed but not subtracted.
	ns := wallS * 1e9
	if busy := m["simtime.island_busy_s"]; busy > 0 {
		// islands runs on two workers at once: count x probe ns is work
		// of both, so its shares are of the workers' busy time.
		ns = busy * 1e9
	}
	share := func(v float64) float64 { return v / ns }
	stores, recalls := m["tsm.stores"], m["tsm.recalls"]
	m["simtime.est_share"] = share(m["simtime.events"] * m["simtime.probe_sleep_ns"])
	m["fabric.est_share"] = share((m["fabric.flows"]-recalls)*m["fabric.probe_stream_send_ns"] +
		recalls*m["fabric.probe_transfer_ns"])
	m["sched.est_share"] = share(m["sched.submitted"] * m["sched.probe_passthrough_ns"])
	m["mpi.est_share"] = share(m["mpi.msgs"] * m["mpi.probe_send_recv_ns"])
	m["pfs.est_share"] = share(files * (2*m["pfs.probe_write_files_ns"] + m["pfs.probe_stat_ns"] + m["pfs.probe_read_content_ns"]))
	m["tsm.est_share"] = share(stores*m["tsm.probe_store_ns"] + recalls*m["tsm.probe_recall_ns"])
	m["tape.est_share"] = share(stores*m["tape.probe_append_ns"] + recalls*m["tape.probe_read_ns"])
	m["metadb.est_share"] = share(m["metadb.rows_added"]*m["metadb.probe_upsert_ns"] + m["hsm.recalled_files"]*m["metadb.probe_by_paths_ns"])
	m["bench.unattributed_share"] = 1 - (m["fabric.est_share"] + m["sched.est_share"] + m["mpi.est_share"] +
		m["pfs.est_share"] + m["tsm.est_share"] + m["metadb.est_share"])
	return m
}

// stat summarises one metric over the reps of one workload.
type stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) stat {
	s := stat{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	mid := len(sorted) / 2
	s.Median = sorted[mid]
	if len(sorted)%2 == 0 {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}
