package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// params select one run of one workload.
type params struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Scale divides every input size: 1 is the benchmark, which is what
	// every command line runs; only the test sets another.
	Scale int `json:"-"`
	// Traced replaces the timed call by the span-recording loop and
	// adds the verify pass; it never supplies an end-to-end number.
	Traced bool `json:"traced"`

	// started is when set-up began: the parent's exec of the child, or
	// the call of runWorkload in-process.
	started time.Time
}

// jobRow is one job's simulated outcome, part of the digest.
type jobRow struct {
	Background float64 `json:"background"`
	Files      int     `json:"files"`
	Bytes      int64   `json:"bytes"`
	ElapsedNs  int64   `json:"elapsed_ns"`
}

// runResult is what one run reports: host cost, simulated outcome,
// output check, and on a traced run the per-layer counts and spans.
type runResult struct {
	params
	SetupS    float64   `json:"setup_s"`
	Host      hostDelta `json:"host"`
	PeakRSSMB float64   `json:"peak_rss_mb"`

	Files   int     `json:"files"`
	Bytes   int64   `json:"bytes"`
	VirtS   float64 `json:"virt_s"` // sum of the jobs' virtual elapsed
	VirtMBs float64 `json:"virt_mbs"`
	// PaperErrPct is |simulated - paper| / paper * 100 where the paper
	// gives a reference for this workload, else absent.
	PaperErrPct *float64 `json:"paper_err_pct,omitempty"`

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	SimDigest string `json:"sim_digest"`
	// VerifyError is the verify pass's finding, "" when it passed or
	// did not run.
	VerifyError string `json:"verify_error,omitempty"`

	Counts map[string]float64 `json:"counts"`
	Spans  []span             `json:"spans,omitempty"`
}

func newResult(p params) *runResult {
	return &runResult{params: p, Counts: make(map[string]float64)}
}

func traceIf(on bool) *tracer {
	if on {
		return newTracer()
	}
	return nil
}

// timeCall runs the timed call: set-up ends where it starts, and the
// host's cost and the collector's share of it are sampled around it.
func (r *runResult) timeCall(started time.Time, fn func() error) error {
	gc0, gcCPU0 := gcStats()
	t0 := sampleHost()
	r.SetupS = t0.at.Sub(started).Seconds()
	err := fn()
	r.Host = t0.until(sampleHost())
	gc1, gcCPU1 := gcStats()
	r.Counts["goruntime.gc_cycles"] = gc1 - gc0
	r.Counts["goruntime.gc_cpu_s"] = gcCPU1 - gcCPU0
	return err
}

// finish closes a result once the simulation has ended.
func (r *runResult) finish(tr *tracer) {
	r.PeakRSSMB = peakRSSMB()
	if tr != nil {
		r.Spans = tr.spans
	}
}

// env is the state a single-clock workload's phases share.
type env struct {
	p     params
	clock *simtime.Clock
	sys   *archive.System
	tr    *tracer
	res   *runResult

	jobs  []jobRow
	infos []pfs.Info // tape workloads: the seeded files
	// reported counts the failures a layer reported (pftool errors and
	// stalls, refused or failed migrations). drive weighs it against the
	// files missing from the output, so that no file is counted twice.
	reported int
}

// plantBase is what the plant's lifetime counters read when the timed
// call starts, so that the per-layer counts cover the timed call alone
// and set-up's work (tape-recall migrates 150,000 files there) is not
// charged to it.
type plantBase struct {
	snap          *telemetry.Snapshot
	events        uint64
	labelVerifies int
	rows, queries int
}

func (e *env) readBase() plantBase {
	return plantBase{
		snap:          telemetry.Of(e.clock).Snapshot(),
		events:        e.clock.EventsProcessed(),
		labelVerifies: e.sys.Library.TotalStats().LabelVerifies,
		rows:          e.sys.Shadow.Len(),
		queries:       e.sys.Shadow.Queries(),
	}
}

func (e *env) addJob(background float64, files int, bytes int64, elapsed time.Duration) {
	e.jobs = append(e.jobs, jobRow{Background: background, Files: files, Bytes: bytes, ElapsedNs: int64(elapsed)})
}

// pftoolResult books what only a pftool.Result carries.
func (e *env) pftoolResult(r pftool.Result) {
	e.res.Counts["mpi.msgs"] += float64(r.Messages)
	e.reported += len(r.Errors)
	if r.Stalled {
		e.reported++
	}
}

func (e *env) notePeakInodes() {
	n := float64(e.sys.Scratch.NumInodes() + e.sys.Archive.NumInodes())
	e.res.Counts["pfs.inodes_peak"] = max(e.res.Counts["pfs.inodes_peak"], n)
}

func (e *env) paperErr(simulated, paper float64) {
	v := math.Abs(simulated-paper) / paper * 100
	e.res.PaperErrPct = &v
}

// runWorkload runs one workload once in this process.
func runWorkload(p params) (*runResult, error) {
	if p.started.IsZero() {
		p.started = time.Now()
	}
	w := findWorkload(p.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	if p.Scale < 1 {
		return nil, fmt.Errorf("scale %d: want >= 1", p.Scale)
	}
	if w.run != nil {
		return w.run(p)
	}
	return runSingle(p, w)
}

// spanTimed names the span around the timed call.
const spanTimed = "timed"

// runSingle drives a single-clock workload: one plant, one driving
// actor, run to quiescence.
func runSingle(p params, w *workloadSpec) (*runResult, error) {
	res := newResult(p)
	res.Attempted = w.files(p.Scale)
	clock := simtime.NewClock()
	e := &env{p: p, clock: clock, tr: traceIf(p.Traced), res: res}
	e.sys = archive.NewDefault(clock)
	var err error
	clock.Go(func() { err = e.drive(w) })
	clock.RunFor()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Counts["goruntime.heap_live_mb"] = heapLiveMB()
	res.finish(e.tr)
	return res, nil
}

func (e *env) drive(w *workloadSpec) error {
	res, c := e.res, e.res.Counts
	return e.tr.in("bench", w.name, func() error {
		if w.setup != nil {
			if err := e.tr.in("bench", "setup", func() error { return w.setup(e) }); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		base := e.readBase()
		if err := res.timeCall(e.p.started, func() error {
			return e.tr.in("bench", spanTimed, func() error { return w.timed(e) })
		}); err != nil {
			return err
		}

		for _, j := range e.jobs {
			res.Files += j.Files
			res.Bytes += j.Bytes
			res.VirtS += time.Duration(j.ElapsedNs).Seconds()
		}
		// A failed operation is missing from the output, reported by a
		// layer, or both: the larger count covers each once.
		res.Failed = max(res.Attempted-res.Files, e.reported)
		if res.VirtS > 0 {
			res.VirtMBs = float64(res.Bytes) / 1e6 / res.VirtS
		}
		snapStart := time.Now()
		snap := telemetry.Of(e.clock).Snapshot()
		c["telemetry.snapshot_ms"] = time.Since(snapStart).Seconds() * 1e3
		res.SimDigest = digest(snap.Text(), e.jobs)
		c["simtime.events"] = float64(e.clock.EventsProcessed() - base.events)
		snapshotCounts(c, snap, base.snap, res.VirtS, res.Files)
		e.accessorCounts(base)

		if e.p.Traced && w.verify != nil {
			if err := e.tr.in("verify", "verify", func() error { return w.verify(e) }); err != nil {
				res.VerifyError = err.Error()
			}
		}
		return nil
	})
}

// digest is SHA-256 over the telemetry exposition (no timestamps) and
// the per-job files, bytes and virtual elapsed: everything the modelled
// archive did, nothing the host did.
func digest(exposition string, jobs []jobRow) string {
	h := sha256.New()
	h.Write([]byte(exposition))
	for _, j := range jobs {
		fmt.Fprintf(h, "job %d %d %d\n", j.Files, j.Bytes, j.ElapsedNs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotCounts derives the count and sim layer metrics a telemetry
// snapshot holds. Counters are read as the difference between snap,
// taken after the timed call, and base, taken as it started; levels
// (series, live objects, the wait summaries, the drives' rated speed)
// are read from snap alone. virtS is the virtual time the jobs took.
func snapshotCounts(c map[string]float64, snap, base *telemetry.Snapshot, virtS float64, files int) {
	total := func(family string) float64 { return snap.Total(family) - base.Total(family) }
	link := func(family, name string) float64 {
		return linkTotal(snap, family, name) - linkTotal(base, family, name)
	}

	c["telemetry.series"] = float64(len(snap.Points))
	c["fabric.flows"] = total("fabric_flows_completed_total")
	c["fabric.trunk_bytes"] = link("fabric_link_bytes_total", "trunk")
	if virtS > 0 {
		c["fabric.trunk_util"] = link("fabric_link_busy_seconds_total", "trunk") / virtS
	}

	c["sched.submitted"] = total("sched_submitted_total")
	c["sched.dispatched"] = total("sched_dispatched_total")
	c["sched.shed"] = total("sched_shed_total")
	c["sched.deadline_exceeded"] = total("deadline_exceeded_total")
	for _, p := range snap.Family("sched_queue_wait_seconds") {
		// One summary per class; report the class that waited longest.
		c["sched.wait_p50_s"] = max(c["sched.wait_p50_s"], p.Quantiles[0.5])
		c["sched.wait_p99_s"] = max(c["sched.wait_p99_s"], p.Quantiles[0.99])
	}

	c["pftool.chunks"] = total("pftool_chunks_copied_total")
	c["pftool.files_restored"] = total("pftool_files_restored_total")
	c["hsm.migrated_files"] = total("hsm_migrated_files_total")
	c["hsm.recalled_files"] = total("hsm_recalled_files_total")
	c["hsm.requeued"] = total("hsm_requeued_files_total")

	c["tsm.transactions"] = total("tsm_transactions_total")
	c["tsm.stores"] = total("tsm_stores_total")
	c["tsm.recalls"] = total("tsm_recalls_total")
	c["tsm.retries"] = total("tsm_retries_total")
	c["tsm.objects_live"] = snap.Total("tsm_objects_live")

	c["tape.mounts"] = total("tape_drive_mounts_total")
	c["tape.seeks"] = total("tape_drive_seeks_total")
	c["tape.robot_exchanges"] = total("tape_robot_exchanges_total")
	busy := total("tape_drive_busy_seconds_total")
	xfer := total("tape_drive_transfer_seconds_total")
	moved := total("tape_drive_bytes_written_total") + total("tape_drive_bytes_read_total")
	drives := float64(len(snap.Family("tape_drive_busy_seconds_total")))
	if virtS > 0 && drives > 0 {
		c["tape.drive_util"] = busy / (drives * virtS)
	}
	if xfer > 0 {
		c["tape.drive_mbs"] = moved / 1e6 / xfer
	}
	if rate := snap.Total("tape_drive_nominal_bytes_per_second"); busy > 0 && rate > 0 {
		// Seconds the bytes would take streaming at the rated speed,
		// over the seconds drives were held: useful over attempted.
		c["tape.stream_efficiency"] = moved / (rate / drives) / busy
	}

	if files > 0 {
		c["simtime.events_per_file"] = c["simtime.events"] / float64(files)
		c["fabric.flows_per_file"] = c["fabric.flows"] / float64(files)
	}
}

// linkTotal sums a per-link family over the series of one link name
// (one per island in a merged snapshot).
func linkTotal(snap *telemetry.Snapshot, family, link string) float64 {
	var sum float64
	for _, p := range snap.Family(family) {
		if p.Label("link") == link {
			sum += p.Value
		}
	}
	return sum
}

// accessorCounts reads the counts only a live plant's accessors give,
// over the timed call as snapshotCounts does; metadb.rows is a level.
func (e *env) accessorCounts(base plantBase) {
	c, s := e.res.Counts, e.sys
	c["tape.label_verifies"] = float64(s.Library.TotalStats().LabelVerifies - base.labelVerifies)
	c["metadb.rows"] = float64(s.Shadow.Len())
	c["metadb.rows_added"] = float64(s.Shadow.Len() - base.rows)
	c["metadb.queries"] = float64(s.Shadow.Queries() - base.queries)
	if files := e.res.Files; files > 0 {
		c["mpi.msgs_per_file"] = c["mpi.msgs"] / float64(files)
	}
}

// sortedKeys is the one iteration order every table and file uses.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
