package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/archive"
	"repro/internal/fabric"
	"repro/internal/metadb"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/telemetry"
	"repro/internal/tsm"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// A probe builds one layer alone on a bare simtime.Clock, replays the
// call shape the workloads make and reports host nanoseconds per call.
// Several metrics can come out of one build (create, stat, readdir and
// remove of the same tree), so a probe fills a map.
type probe struct {
	// n is the operation count at scale 1, sized so one pass takes well
	// under a second.
	n  int
	fn func(n int, out map[string]float64)
}

const probePasses = 3 // report the best: the least disturbed pass

var probes = []probe{
	{400_000, probeSleep},
	{1_000_000, probeCallback},
	{200_000, probeQueue},
	{60_000, probeTransfer},
	{200_000, probeStreamSend},
	{60_000, probeAdmit},
	{2_000_000, probeTelemetry},
	{200_000, probeVFS},
	{100_000, probePFS},
	{200_000, probeMPI},
	{200_000, probePfls},
	{20_000, probeStore},
	{50_000, probeAppend},
	{200_000, probeMetadb},
	{2_000_000, probeNewUniform},
}

// runProbes runs every probe probePasses times and keeps each metric's
// best pass. vfs.heap_bytes_per_inode is measured once, apart.
func runProbes(scale int) map[string]float64 {
	best := make(map[string]float64)
	for _, p := range probes {
		n := max(p.n/scale, 64)
		for pass := 0; pass < probePasses; pass++ {
			out := make(map[string]float64)
			p.fn(n, out)
			for k, v := range out {
				if old, ok := best[k]; !ok || v < old {
					best[k] = v
				}
			}
		}
	}
	best["vfs.heap_bytes_per_inode"] = vfsHeapPerInode(max(500_000/scale, 64))
	return best
}

// perOp is host nanoseconds per operation since t0.
func perOp(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// actor runs fn as the only driving actor of a fresh clock.
func actor(fn func(clock *simtime.Clock)) {
	clock := simtime.NewClock()
	clock.Go(func() { fn(clock) })
	clock.RunFor()
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
}

// probeSleep: 64 actors in Sleep loops with coprime periods, the
// park/unpark hand-off every blocking primitive pays.
func probeSleep(n int, out map[string]float64) {
	const actors = 64
	per := max(n/actors, 1)
	clock := simtime.NewClock()
	for a := 0; a < actors; a++ {
		d := time.Duration(a+1) * time.Millisecond
		clock.Go(func() {
			for i := 0; i < per; i++ {
				clock.Sleep(d)
			}
		})
	}
	t0 := time.Now()
	clock.RunFor()
	out["simtime.probe_sleep_ns"] = perOp(t0, per*actors)
}

// probeCallback: 64 self-rearming Callback chains, the event heap with
// no goroutine involved.
func probeCallback(n int, out map[string]float64) {
	const chains = 64
	per := max(n/chains, 1)
	clock := simtime.NewClock()
	for c := 0; c < chains; c++ {
		d, left := time.Duration(c+1)*time.Millisecond, per
		var step func()
		step = func() {
			if left--; left > 0 {
				clock.Callback(clock.Now()+d, step)
			}
		}
		clock.Callback(d, step)
	}
	t0 := time.Now()
	clock.RunFor()
	out["simtime.probe_callback_ns"] = perOp(t0, per*chains)
}

// probeQueue: two actors ping-pong through a pair of Queues, so every
// Pop parks and every Push wakes the peer.
func probeQueue(n int, out map[string]float64) {
	clock := simtime.NewClock()
	ping, pong := simtime.NewQueue(clock), simtime.NewQueue(clock)
	clock.Go(func() {
		for i := 0; i < n; i++ {
			ping.Push(i)
			pong.Pop()
		}
		ping.Close()
	})
	clock.Go(func() {
		for {
			if _, ok := ping.Pop(); !ok {
				return
			}
			pong.Push(nil)
		}
	})
	t0 := time.Now()
	clock.RunFor()
	out["simtime.probe_queue_handoff_ns"] = perOp(t0, 2*n)
}

// probeFabric wires the pfcp route shape: one shared trunk from the
// compute hub to a LAN hub, then a private NIC per stream.
func probeFabric(clock *simtime.Clock, streams int) (*fabric.Fabric, []fabric.Path) {
	f := fabric.New(clock)
	f.AddLink("trunk", 1.87e9, fabric.Compute, "lan")
	paths := make([]fabric.Path, streams)
	for i := range paths {
		node := fmt.Sprintf("node%02d", i)
		f.AddLink(node+"-nic", 1.25e9, "lan", node)
		p, err := f.Route(fabric.Compute, "", node)
		must(err)
		paths[i] = p
	}
	return f, paths
}

const fabricStreams = 32

// probeTransfer: 32 actors churning one-shot Transfers of 8 MB objects
// of staggered sizes, so every start and finish is its own max-min
// recompute: the shape of tape recalls, the only per-file one-shot
// flows the workloads make.
func probeTransfer(n int, out map[string]float64) {
	per := max(n/fabricStreams, 1)
	clock := simtime.NewClock()
	f, paths := probeFabric(clock, fabricStreams)
	for i, p := range paths {
		size := int64(tapeFileSize + float64(i)*1e5)
		clock.Go(func() {
			for k := 0; k < per; k++ {
				f.Transfer(p, size)
			}
		})
	}
	t0 := time.Now()
	clock.RunFor()
	out["fabric.probe_transfer_ns"] = perOp(t0, per*fabricStreams)
}

// probeStreamSend: the same routes as persistent streams, one per
// actor, in pfcp's chunked-copy shape: four full 4 GB chunks, which
// finish together, then a tail whose size differs per stream and
// finishes alone. pftool workers, workload.Noise and the migrator's
// movers all send segments of a persistent stream.
func probeStreamSend(n int, out map[string]float64) {
	per := max(n/fabricStreams, 1)
	clock := simtime.NewClock()
	f, paths := probeFabric(clock, fabricStreams)
	for i, p := range paths {
		tail := int64(1e9 + float64(i)*83e6)
		clock.Go(func() {
			st := f.Stream(p)
			for k := 0; k < per; k++ {
				size := int64(4e9)
				if k%5 == 4 {
					size = tail
				}
				st.Send(size)
			}
			st.Close()
		})
	}
	t0 := time.Now()
	clock.RunFor()
	out["fabric.probe_stream_send_ns"] = perOp(t0, per*fabricStreams)
}

// probeAdmit: 1,000 tenants over the three classes contend for a
// 24-slot station; each holds its grant for one virtual millisecond,
// so the figure includes one Sleep per admission. Then the same
// Admit+Done on an unlimited station.
func probeAdmit(n int, out map[string]float64) {
	const tenants = 1000
	per := max(n/tenants, 1)
	clock := simtime.NewClock()
	sch := sched.Of(clock)
	sch.SetLimit("bench.probe", 24)
	st := sch.Station("bench.probe")
	classes := []sched.Class{sched.Interactive, sched.Batch, sched.Scavenger}
	for t := 0; t < tenants; t++ {
		qos := sched.QoS{Tenant: fmt.Sprintf("tenant%04d", t), Class: classes[t%len(classes)]}
		clock.Go(func() {
			for k := 0; k < per; k++ {
				g := st.Admit(sched.Item{QoS: qos, Kind: "bench.probe", Units: 8e6})
				clock.Sleep(time.Millisecond)
				g.Done()
			}
		})
	}
	t0 := time.Now()
	clock.RunFor()
	out["sched.probe_admit_ns"] = perOp(t0, per*tenants)

	// The default plant sets no station limit: every admission the
	// workloads make is this pass-through grant.
	actor(func(clock *simtime.Clock) {
		st := sched.Of(clock).Station("bench.passthrough")
		it := sched.Item{QoS: sched.QoS{Tenant: sched.DefaultTenant, Class: sched.Batch}, Kind: "bench.probe", Units: 8e6}
		t0 := time.Now()
		for k := 0; k < n; k++ {
			st.Admit(it).Done()
		}
		out["sched.probe_passthrough_ns"] = perOp(t0, n)
	})
}

func probeTelemetry(n int, out map[string]float64) {
	reg := telemetry.New(simtime.NewClock())
	ctr := reg.Counter("bench_probe_total", "op", "add")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ctr.Add(1)
	}
	out["telemetry.probe_counter_add_ns"] = perOp(t0, n)

	h := reg.Histogram("bench_probe_bytes", "op", "observe")
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	out["telemetry.probe_histogram_observe_ns"] = perOp(t0, n)

	spans := max(n/10, 1)
	t0 = time.Now()
	for i := 0; i < spans; i++ {
		reg.StartSpan("bench.probe", "op", "span").End()
	}
	out["telemetry.probe_span_ns"] = perOp(t0, spans)
}

func buildVFS(n int) (*vfs.FS, []string, []string) {
	fs := vfs.New("probe", func() time.Duration { return 0 })
	dirs, files := treePaths("/t", n)
	for _, d := range dirs {
		must(fs.MkdirAll(d))
	}
	return fs, dirs, files
}

func probeVFS(n int, out map[string]float64) {
	fs, dirs, files := buildVFS(n)
	t0 := time.Now()
	for i, p := range files {
		must(fs.WriteFile(p, synthetic.NewUniform(uint64(i), 64e3)))
	}
	out["vfs.probe_create_ns"] = perOp(t0, n)

	t0 = time.Now()
	for _, p := range files {
		if _, err := fs.Stat(p); err != nil {
			panic(err)
		}
	}
	out["vfs.probe_stat_ns"] = perOp(t0, n)

	t0 = time.Now()
	entries := 0
	for _, d := range dirs {
		list, err := fs.ReadDir(d)
		must(err)
		entries += len(list)
	}
	out["vfs.probe_readdir_ns_per_entry"] = perOp(t0, entries)

	inodes := fs.NumInodes()
	t0 = time.Now()
	must(fs.RemoveAll("/t"))
	out["vfs.probe_remove_all_ns_per_inode"] = perOp(t0, inodes)
}

// vfsHeapPerInode is the live heap a namespace of n files retains.
func vfsHeapPerInode(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fs, _, files := buildVFS(n)
	for i, p := range files {
		must(fs.WriteFile(p, synthetic.NewUniform(uint64(i), 64e3)))
	}
	files = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	inodes := fs.NumInodes()
	runtime.KeepAlive(fs)
	return math.Max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0) / float64(inodes)
}

func probePFS(n int, out map[string]float64) {
	actor(func(clock *simtime.Clock) {
		fs := pfs.New(clock, pfs.GPFSConfig("probe"))
		dirs, files := treePaths("/t", n)
		for _, d := range dirs {
			must(fs.MkdirAll(d))
		}
		specs := make([]pfs.FileSpec, n)
		for i, p := range files {
			specs[i] = pfs.FileSpec{Path: p, Content: synthetic.NewUniform(uint64(i), 8e6)}
		}
		t0 := time.Now()
		must(fs.WriteFiles(specs))
		out["pfs.probe_write_files_ns"] = perOp(t0, n)

		t0 = time.Now()
		for _, p := range files {
			if _, err := fs.Stat(p); err != nil {
				panic(err)
			}
		}
		out["pfs.probe_stat_ns"] = perOp(t0, n)

		t0 = time.Now()
		for _, p := range files {
			if _, err := fs.ReadContent(p); err != nil {
				panic(err)
			}
		}
		out["pfs.probe_read_content_ns"] = perOp(t0, n)

		t0 = time.Now()
		inodes := 0
		must(fs.Scan(func(pfs.Info) error { inodes++; return nil }))
		out["pfs.probe_scan_ns_per_inode"] = perOp(t0, inodes)

		// The stub life cycle of one migrated-then-recalled file.
		t0 = time.Now()
		for _, p := range files {
			must(fs.SetPremigrated(p))
			must(fs.Punch(p))
			must(fs.Restore(p, false))
		}
		out["pfs.probe_punch_restore_ns"] = perOp(t0, n)
	})
}

// probeMPI: one manager and 20 workers in pftool's request/assign
// round trip; the figure is per message.
func probeMPI(n int, out map[string]float64) {
	const (
		workers = 20
		tagReq  = 1
		tagWork = 2
	)
	rounds := max(n/2, workers)
	clock := simtime.NewClock()
	comm := mpi.New(clock, workers+1)
	comm.Start(0, func() {
		for i := 0; i < rounds; i++ {
			m, ok := comm.Recv(0, mpi.Any, tagReq)
			if !ok {
				return
			}
			comm.Send(0, m.From, tagWork, i)
		}
		comm.CloseAll()
	})
	for r := 1; r <= workers; r++ {
		comm.Start(r, func() {
			for {
				comm.Send(r, 0, tagReq, nil)
				if _, ok := comm.Recv(r, 0, tagWork); !ok {
					return
				}
			}
		})
	}
	t0 := time.Now()
	clock.RunFor()
	out["mpi.probe_send_recv_ns"] = perOp(t0, comm.Sent())
}

// probePfls: pfls over a tree of n small files: walk, manager and
// mailboxes with no data moved.
func probePfls(n int, out map[string]float64) {
	clock := simtime.NewClock()
	sys := archive.NewDefault(clock)
	clock.Go(func() {
		spec := workload.JobSpec{ID: 1, Project: "probe", NumFiles: n, TotalBytes: int64(n) * 64e3, AvgFileSize: 64e3}
		_, err := workload.BuildTree(sys.Scratch, "/t", spec, 1, treeFanout)
		must(err)
		t0 := time.Now()
		r, err := sys.Pfls("scratch", "/t", pftool.DefaultTunables())
		must(err)
		out["pftool.probe_pfls_ns_per_entry"] = perOp(t0, r.FilesListed+r.DirsListed)
	})
	clock.RunFor()
}

// probeStore: Server.Store of 8 MB objects from one client onto one
// drive, no data route: the catalog, session and tape bookkeeping. Then
// the same objects back through RecallBatch, one drive session per
// volume in tape order, as the tape-ordered retrieve recalls them.
func probeStore(n int, out map[string]float64) {
	actor(func(clock *simtime.Clock) {
		lib := tape.NewLibrary(clock, 1, 64, 1, tape.LTO4())
		srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
		paths := make([]string, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/mig/f%06d", i)
		}
		objs := make([]tsm.Object, n)
		t0 := time.Now()
		for i, p := range paths {
			obj, err := srv.Store(tsm.StoreRequest{Client: "fta01", Class: tsm.ClassMigrate, Path: p, FileID: uint64(i + 1), Bytes: tapeFileSize})
			must(err)
			objs[i] = obj
		}
		out["tsm.probe_store_ns"] = perOp(t0, n)

		t0 = time.Now()
		for lo := 0; lo < n; {
			hi, vol := lo, objs[lo].Volume
			var ids []uint64
			for ; hi < n && objs[hi].Volume == vol; hi++ {
				ids = append(ids, objs[hi].ID)
			}
			got, err := srv.RecallBatch(tsm.RecallBatchRequest{Client: "fta01", Volume: vol, ObjectIDs: ids})
			must(err)
			if len(got) != len(ids) {
				panic("probe: tsm.RecallBatch returned fewer objects than asked for")
			}
			lo = hi
		}
		out["tsm.probe_recall_ns"] = perOp(t0, n)
	})
}

// probeAppend: one mounted drive appending 8 MB files, then reading
// them back in tape order.
func probeAppend(n int, out map[string]float64) {
	actor(func(clock *simtime.Clock) {
		lib := tape.NewLibrary(clock, 1, 8, 1, tape.LTO4())
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, err := lib.Scratch(1)
		must(err)
		must(lib.Mount(d, cart))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, err := d.Append(uint64(i+1), tapeFileSize)
			must(err)
		}
		out["tape.probe_append_ns"] = perOp(t0, n)

		t0 = time.Now()
		for seq := 1; seq <= n; seq++ {
			_, err := d.ReadSeq(seq)
			must(err)
		}
		out["tape.probe_read_ns"] = perOp(t0, n)
	})
}

func probeMetadb(n int, out map[string]float64) {
	actor(func(clock *simtime.Clock) {
		db := metadb.New(clock, 100*time.Microsecond)
		_, paths := treePaths("/mig", n)
		t0 := time.Now()
		for i, p := range paths {
			db.Upsert(metadb.Record{ObjectID: uint64(i + 1), FileID: uint64(i + 1), Path: p, Bytes: tapeFileSize, Volume: "VOL0001", Seq: i + 1})
		}
		out["metadb.probe_upsert_ns"] = perOp(t0, n)

		// pftool resolves tape locations a directory's worth at a time.
		t0 = time.Now()
		for lo := 0; lo < n; lo += treeFanout {
			if got := db.ByPaths(paths[lo:min(lo+treeFanout, n)]); len(got) == 0 {
				panic("probe: metadb.ByPaths found nothing")
			}
		}
		out["metadb.probe_by_paths_ns"] = perOp(t0, n)
	})
}

var contentSink synthetic.Content

func probeNewUniform(n int, out map[string]float64) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		contentSink = synthetic.NewUniform(uint64(i), 64e3)
	}
	out["synthetic.probe_new_uniform_ns"] = perOp(t0, n)
}
