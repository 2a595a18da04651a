package pftool

import (
	"fmt"
	"strconv"

	"repro/internal/chunkfs"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

// jobUnits is a worker job's admission cost in bytes.
func jobUnits(job copyJob) int64 {
	if job.kind == kindChunk || job.kind == kindFuse {
		return job.length
	}
	var n int64
	for _, f := range job.batch {
		n += f.bytes
	}
	return n
}

// readDirProc is one ReadDir process: it exposes directories the
// Manager assigns from the DirQ and ships the entries back (§4.1.1(4)).
func (r *run) readDirProc(rank int) {
	mgr := r.layout.manager
	node := r.nodeFor(rank)
	if node.Down() {
		return // machine dead at launch: the rank never reports in
	}
	r.comm.Send(rank, mgr, tagIdle, nil)
	for {
		msg, ok := r.comm.Recv(rank, mgr, tagDirJob)
		if !ok {
			return
		}
		if node.Down() {
			return // died holding the job; the WatchDog has it requeued
		}
		job := *msg.Data.(*dirJob)
		entries, err := r.req.SrcFS.ReadDir(job.src)
		res := &r.ranks[rank].dirRes
		*res = dirResult{dst: job.dst, entries: entries}
		if err != nil {
			res.err = fmt.Sprintf("readdir %s: %v", job.src, err)
		}
		if node.Down() {
			return // died mid-job: no report, the job replays elsewhere
		}
		r.comm.Send(rank, mgr, tagDirResult, res)
	}
}

// workerProc is one Worker process: it executes copy, chunk, and
// compare jobs from the CopyQ (§4.1.1(6)).
// Workers follow the rank-death protocol: a rank whose machine is down
// exits silently — before reporting in, between receiving a job and
// starting it, or after finishing but before reporting — and the
// WatchDog notices the dead machine and has the Manager requeue the
// job. Failures land at job boundaries (the simulated transfer itself
// runs to completion), mirroring how the real tool only learns of a
// dead mover when its rank stops responding.
func (r *run) workerProc(rank int) {
	mgr := r.layout.manager
	node := r.nodeFor(rank)
	if node.Down() {
		return // machine dead at launch: the rank never reports in
	}
	r.comm.Send(rank, mgr, tagIdle, nil)
	for {
		msg, ok := r.comm.Recv(rank, mgr, tagCopyJob)
		if !ok {
			return
		}
		if node.Down() {
			return // died holding the job; the WatchDog has it requeued
		}
		job := *msg.Data.(*copyJob)
		res := &r.ranks[rank].copyRes
		// Every worker job passes the unified admission layer before it
		// moves data; on the single-tenant default path the station is
		// pass-through and the grant is immediate.
		grant := r.sch.Station(sched.StationPftoolCopy).Admit(sched.Item{
			QoS: sched.QoS{}.Or(sched.Batch), Units: jobUnits(job),
		})
		if gerr := grant.Err(); gerr != nil {
			// Admission refused the job (brownout shed):
			// report it as a failed result — counted and surfaced, never
			// silently dropped.
			*res = copyResult{err: gerr.Error()}
			r.comm.Send(rank, mgr, tagCopyResult, res)
			continue
		}
		switch job.kind {
		case kindBatch:
			*res = r.copyBatch(rank, node, job)
		case kindChunk, kindFuse:
			*res = r.copyChunk(rank, node, job)
		case kindCompare:
			*res = r.compareBatch(rank, node, job)
		}
		grant.Done()
		if node.Down() {
			return // died mid-job: no report, the job replays elsewhere
		}
		r.comm.Send(rank, mgr, tagCopyResult, res)
	}
}

// transfer moves bytes across the fabric as ONE coupled flow spanning
// the whole data path — source pool, trunk, the worker node's NIC,
// destination pool — at a single max-min fair rate. The pools'
// single-stream ceilings enter the allocation as a per-flow cap (a
// stream only reaches the NSDs its stripes land on), which is exactly
// why PFTool runs many workers in the first place.
//
// Each worker rank drives all its jobs through one persistent fabric
// stream: every batch/chunk is a segment of that stream, so thousands
// of small-file batches cost O(1) scheduler work each instead of a
// join/leave fair-share recompute pair. The stream stays registered in
// r.flows so the WatchDog can sample its (cumulative) byte progress
// directly: a healthy hours-long single-chunk transfer must not look
// like a stall.
func (r *run) transfer(rank int, node *cluster.Node, bytes int64) {
	st, ok := r.streams[rank]
	if !ok {
		st = r.fab.Stream(r.route(node))
		st.SetCap(r.streamFloor())
		r.streams[rank] = st
		r.flows[st] = struct{}{}
	}
	st.Send(bytes)
}

// streamFloor returns the tightest single-stream rate cap on the data
// path (0 = uncapped).
func (r *run) streamFloor() float64 {
	floor := r.req.SrcFS.DefaultPool().StreamRate()
	if r.req.DstFS != nil {
		if d := r.req.DstFS.DefaultPool().StreamRate(); d > 0 && (floor == 0 || d < floor) {
			floor = d
		}
	}
	return floor
}

// route resolves (and caches) the fabric path a worker on node drives
// data over: source pool to the node, then on to the destination pool
// (pfls has no destination; the route ends at the node).
func (r *run) route(node *cluster.Node) fabric.Path {
	if p, ok := r.routes[node.Name]; ok {
		return p
	}
	src := r.req.SrcFS.DefaultPool().Endpoint()
	var p fabric.Path
	var err error
	if r.req.DstFS != nil {
		p, err = r.fab.Route(src, node.Name, r.req.DstFS.DefaultPool().Endpoint())
	} else {
		p, err = r.fab.Route(src, "", node.Name)
	}
	if err != nil {
		panic(fmt.Sprintf("pftool: no data path from %s via %s: %v", src, node.Name, err))
	}
	r.routes[node.Name] = p
	return p
}

// survivors is copyBatch's pre-pass: it returns the files of the batch
// that are to be read, and the fault the hook injected, if any, which
// ends the batch at that file. With Restart enabled, files whose
// destination already exists with the same size and an equal or newer
// mtime are skipped — the paper's whole-file restart rule (§4.5) — and
// recorded in res. A run with neither the rule nor the hook reads the
// batch as it is.
func (r *run) survivors(sc *batchScratch, batch []fileCopy, res *copyResult) (todo []fileCopy, injected string) {
	t := &r.req.Tunables
	if !t.Restart && t.InjectFault == nil {
		return batch, ""
	}
	todo = sc.todo[:0]
	for _, f := range batch {
		if t.Restart {
			if di, err := r.req.DstFS.Stat(f.dst); err == nil {
				si, serr := r.req.SrcFS.StatID(f.id)
				if serr == nil && !di.IsDir() && di.Size == si.Size && di.ModTime >= si.ModTime {
					res.skipped++
					res.dsts = append(res.dsts, f.dst)
					continue
				}
			}
		}
		if t.InjectFault != nil && t.InjectFault(f.dst, -1) {
			injected = fmt.Sprintf("injected fault copying %s", f.dst)
			break
		}
		todo = append(todo, f)
	}
	sc.todo = todo
	return todo, injected
}

// copyBatch copies a batch of whole files: the files the pre-pass leaves
// are read through one paid metadata batch, the way WriteFiles lands
// them, moved as one segment of the rank's stream, and written. A fault
// injected on a file still lets the files ahead of it be read (and
// billed) before the job reports the failure.
func (r *run) copyBatch(rank int, node *cluster.Node, job copyJob) copyResult {
	res := copyResult{}
	sc := &r.scratch[rank]
	todo, injected := r.survivors(sc, job.batch, &res)

	toWrite := sc.specs[:0]
	written := sc.dsts[:0]
	var transferBytes int64
	reads := r.req.SrcFS.Bill(len(todo))
	for _, f := range todo {
		content, err := reads.ReadContentID(f.id)
		if err != nil {
			res.err = fmt.Sprintf("read %s: %v", f.src, err)
			return res
		}
		spec := pfs.FileSpec{Path: f.dst, Content: content}
		if r.req.Placement != nil {
			spec.Pool = r.req.Placement.Choose(f.dst, f.bytes, r.clock.Now())
		}
		toWrite = append(toWrite, spec)
		written = append(written, f.dst)
		transferBytes += f.bytes
		res.files++
		res.bytes += f.bytes
	}
	sc.specs, sc.dsts = toWrite, written
	if injected != "" {
		res.err = injected
		return res
	}
	if transferBytes > 0 {
		node.Slots().Acquire(1)
		r.transfer(rank, node, transferBytes)
		node.Slots().Release(1)
	}
	if len(toWrite) > 0 {
		if err := r.req.DstFS.WriteFiles(toWrite); err != nil {
			return copyResult{err: err.Error()}
		}
		// Only now are the copies durable and journalable.
		res.dsts = append(res.dsts, written...)
	}
	return res
}

// copyChunk copies one chunk of a large file: N-to-1 (overwrite into a
// preallocated inode) or N-to-N (write an independent chunk file).
// Chunks are marked good on completion so restarts skip them (§4.5).
func (r *run) copyChunk(rank int, node *cluster.Node, job copyJob) copyResult {
	res := copyResult{logical: job.logical}
	markKey := chunkMarkKey(job.chunkIdx)
	if r.req.Tunables.Restart {
		var mark string
		switch job.kind {
		case kindChunk:
			mark, _ = r.req.DstFS.GetXattr(job.dst, markKey)
		case kindFuse:
			if di, err := r.req.DstFS.Stat(job.dst); err == nil && di.Size == job.length {
				mark, _ = r.req.DstFS.GetXattr(job.dst, chunkfs.StateXattr)
			}
		}
		if mark == chunkfs.StateGood {
			res.skChunks++
			return res
		}
	}
	if r.req.Tunables.InjectFault != nil && r.req.Tunables.InjectFault(job.logical, job.chunkIdx) {
		if job.kind == kindChunk {
			r.req.DstFS.SetXattr(job.dst, markKey, "bad")
		}
		res.err = fmt.Sprintf("injected fault on %s chunk %d", job.logical, job.chunkIdx)
		return res
	}
	content, err := r.req.SrcFS.ReadContent(job.src)
	if err != nil {
		res.err = fmt.Sprintf("read %s: %v", job.src, err)
		return res
	}
	slice := content.Slice(job.off, job.length)
	node.Slots().Acquire(1)
	r.transfer(rank, node, job.length)
	node.Slots().Release(1)
	switch job.kind {
	case kindChunk:
		if err := r.req.DstFS.WriteAt(job.dst, job.off, slice); err != nil {
			res.err = err.Error()
			return res
		}
		r.req.DstFS.SetXattr(job.dst, markKey, chunkfs.StateGood)
	case kindFuse:
		if err := r.req.DstFS.WriteFile(job.dst, slice); err != nil {
			res.err = err.Error()
			return res
		}
		r.req.DstFS.SetXattr(job.dst, chunkfs.StateXattr, chunkfs.StateGood)
	}
	res.chunks++
	res.bytes += job.length
	return res
}

// chunkMarkKeys holds the restart-mark attribute names of the first
// chunks, built at init and never written after, so that runs on
// parallel islands can share it.
var chunkMarkKeys = func() (keys [256]string) {
	for i := range keys {
		keys[i] = "pfcp.chunk." + strconv.Itoa(i)
	}
	return keys
}()

// chunkMarkKey names the attribute that marks chunk i of an N-to-1 copy
// good or bad.
func chunkMarkKey(i int) string {
	if i < len(chunkMarkKeys) {
		return chunkMarkKeys[i]
	}
	return "pfcp.chunk." + strconv.Itoa(i)
}

// compareBatch byte-compares source and destination files (pfcm). Both
// sides are read in full, so the comparison pays two transfers. Each
// side is one paid metadata batch: every source first, then the
// destination of each source that could be read.
func (r *run) compareBatch(rank int, node *cluster.Node, job copyJob) copyResult {
	res := copyResult{}
	sc := &r.scratch[rank]
	todo, srcs := sc.todo[:0], sc.srcs[:0]
	reads := r.req.SrcFS.Bill(len(job.batch))
	for _, f := range job.batch {
		srcContent, err := reads.ReadContentID(f.id)
		if err != nil {
			res.missing++
			continue
		}
		todo = append(todo, f)
		srcs = append(srcs, srcContent)
	}
	sc.todo, sc.srcs = todo, srcs

	var transferBytes int64
	reads = r.req.DstFS.Bill(len(todo))
	for i, f := range todo {
		srcContent := srcs[i]
		dstContent, err := reads.ReadContent(f.dst)
		if err != nil {
			res.missing++
			continue
		}
		transferBytes += f.bytes + dstContent.Len()
		if srcContent.Equal(dstContent) {
			res.matched++
			// Only clean comparisons enter the restart journal: a
			// resumed pfcm must re-flag mismatched or missing files,
			// not silently skip past a known discrepancy.
			res.dsts = append(res.dsts, f.dst)
		} else {
			res.mismatch++
			res.mismatches = append(res.mismatches, Mismatch{
				Src:    f.src,
				Dst:    f.dst,
				Offset: synthetic.FirstDiff(srcContent, dstContent),
			})
		}
	}
	if transferBytes > 0 {
		node.Slots().Acquire(1)
		r.transfer(rank, node, transferBytes)
		node.Slots().Release(1)
	}
	return res
}

// tapeProc is one TapeProc process: it restores one TapeCQ (a
// tape-ordered volume worth of migrated files) as its own machine, then
// reports the restored files back so the Manager can line up normal
// copy jobs (§4.1.1(5)).
func (r *run) tapeProc(rank int) {
	mgr := r.layout.manager
	node := r.nodeFor(rank)
	if node.Down() {
		return // machine dead at launch: the rank never reports in
	}
	r.comm.Send(rank, mgr, tagIdle, nil)
	for {
		msg, ok := r.comm.Recv(rank, mgr, tagTapeJob)
		if !ok {
			return
		}
		if node.Down() {
			return // died holding the job; the WatchDog has it requeued
		}
		job := *msg.Data.(*tapeJob)
		res := &r.ranks[rank].tapeRes
		*res = tapeResult{job: job}
		// A tape restore is expedited recall work: someone is waiting on
		// the data coming back from the archive.
		grant := r.sch.Station(sched.StationPftoolTape).Admit(sched.Item{
			QoS:   sched.QoS{}.Or(sched.Interactive),
			Units: job.bytes, Expedite: true,
		})
		if gerr := grant.Err(); gerr != nil {
			res.err = fmt.Sprintf("restore volume %s: %v", job.volume, gerr)
			r.comm.Send(rank, mgr, tagTapeResult, res)
			continue
		}
		if err := r.req.Restorer.RecallPinned(node.Name, job.src, job.ids); err != nil {
			res.err = fmt.Sprintf("restore volume %s: %v", job.volume, err)
		}
		grant.Done()
		if node.Down() {
			// Died mid-restore. The requeued job replays on a survivor;
			// recalls are idempotent, so files this rank already restored
			// are skipped there.
			return
		}
		r.comm.Send(rank, mgr, tagTapeResult, res)
	}
}

// outputProc is the OutPutProc: it serializes display output (§4.1.1(2)).
func (r *run) outputProc() {
	rank := r.layout.output
	for {
		msg, ok := r.comm.Recv(rank, mpi.Any, tagOutput)
		if !ok {
			return
		}
		if r.req.Output != nil {
			fmt.Fprintln(r.req.Output, msg.Data.(string))
		}
	}
}

// watchdog is the WatchDog process: it samples run-time progress
// periodically, force-terminates the whole job if data movement
// stalls (§4.1.1(3)), and declares data ranks whose machine has gone
// down dead so the Manager can requeue their in-flight jobs.
func (r *run) watchdog() {
	t := r.req.Tunables
	var lastProgress int64 = -1
	var lastMoved int64 = -1
	var silentFor simtime.Duration
	dead := make([]bool, r.layout.size)
	for {
		r.clock.Sleep(t.WatchdogInterval)
		if r.done {
			return
		}
		r.ctrHeartbeats.Inc()
		// Rank-death detection: each data rank whose machine is down is
		// reported to the Manager exactly once. Its mailbox closes too,
		// so even if the machine reboots the rank stays gone — MPI rank
		// death is permanent for the life of the job. Only data ranks can
		// die: the coordination ranks (Manager, OutPutProc, WatchDog) live
		// on the submitting host, the data ranks on the FTA machine list.
		for rank, role := range r.layout.roles {
			if role != roleCoord && !dead[rank] && r.nodeFor(rank).Down() {
				dead[rank] = true
				r.comm.Close(rank)
				r.comm.Send(r.layout.watchdog, r.layout.manager, tagRankDead, rank)
			}
		}
		// Record the periodic statistics the paper's WatchDog keeps:
		// totals as of this interval (per-interval deltas are the
		// difference of consecutive points).
		r.res.history = append(r.res.history, historyPoint{
			At:    r.clock.Now(),
			Files: r.res.FilesCopied,
			Bytes: r.res.BytesCopied,
		})
		// Progress has three sources: the Manager's completion counter,
		// the bytes the in-flight fabric flows have moved ("number of
		// bytes copied in the past T minutes") — sampled on demand, so
		// one flow spanning a whole large file still registers — and the
		// bytes tape restores have read back: a TapeProc reports nothing
		// to the Manager until its whole volume batch returns.
		moved := r.movedBytes
		for fl := range r.flows {
			moved += fl.Transferred()
		}
		if r.ctrTapeRead != nil {
			moved += int64(r.ctrTapeRead.Value())
		}
		if r.progress != lastProgress || moved != lastMoved {
			lastProgress = r.progress
			lastMoved = moved
			silentFor = 0
			continue
		}
		silentFor += t.WatchdogInterval
		if silentFor >= t.StallTimeout {
			// Force termination: closing every mailbox makes all
			// blocked receives return and the Manager report a stall.
			r.res.Stalled = true
			r.comm.CloseAll()
			return
		}
	}
}
