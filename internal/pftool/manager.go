package pftool

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strconv"

	"repro/internal/chunkfs"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Message tags (Figure 3's queues and request/response flows).
const (
	tagIdle       = iota // proc -> manager: ready for work
	tagDirJob            // manager -> readdir
	tagDirResult         // readdir -> manager
	tagCopyJob           // manager -> worker
	tagCopyResult        // worker -> manager
	tagTapeJob           // manager -> tapeproc
	tagTapeResult        // tapeproc -> manager
	tagOutput            // anyone -> outputproc
	tagRankDead          // watchdog -> manager: a data rank's machine died
)

// copyKind distinguishes worker job flavors.
type copyKind int

const (
	kindBatch   copyKind = iota // a batch of whole small/medium files
	kindChunk                   // one chunk of an N-to-1 large-file copy
	kindFuse                    // one chunk file of an N-to-N very large copy
	kindCompare                 // a batch of byte comparisons (pfcm)
)

// fileCopy is one whole-file work item inside a batch. The source is
// read by id, the handle the walk resolved; src names it in reports.
type fileCopy struct {
	src, dst string
	id       vfs.FileID
	bytes    int64
}

// copyJob is the Manager -> Worker work unit (one CopyQ entry).
type copyJob struct {
	kind  copyKind
	batch []fileCopy

	// Chunk fields (kindChunk, kindFuse).
	src, dst    string // dst is the final file (chunk) path
	off, length int64
	chunkIdx    int
	logical     string // the logical destination file this chunk belongs to
}

// copyResult is the Worker -> Manager completion report.
type copyResult struct {
	files    int
	skipped  int
	bytes    int64
	chunks   int
	skChunks int
	matched  int
	mismatch int
	missing  int
	// mismatches details each compare failure (path + first differing
	// byte), so pfcm can tell the operator where the damage is instead
	// of just how much.
	mismatches []mismatch
	logical    string   // set for chunk completions
	dsts       []string // whole files completed, for the restart journal
	err        string
}

// dirJob is the Manager -> ReadDir work unit (one DirQ entry).
type dirJob struct {
	src, dst string
}

// dirResult carries an exposed directory back to the Manager.
type dirResult struct {
	src, dst string
	entries  []pfs.Info
	err      string
}

// tapeJob is the Manager -> TapeProc work unit (one TapeCQ): migrated
// source files, already tape-ordered when Tunables.TapeOrdered, with the
// file ID and destination of each at the same index.
type tapeJob struct {
	volume   string
	src, dst []string
	ids      []vfs.FileID
	bytes    int64 // on tape, for the scheduler admission
}

// tapeResult reports restored files ready for normal copying.
type tapeResult struct {
	job tapeJob
	err string
}

// rankSlot is the Manager's record of one rank, indexed by rank. Jobs
// and reports travel as pointers to its job and report fields: a rank
// holds at most one job, and the Manager reads its report before it can
// assign the rank again, so one slot of each per rank is all the
// exchange needs and a dispatched job allocates nothing. The receiving
// rank copies its job out by value, and the Manager copies a report out
// and clears its slot (take). It drops a dead rank's late report before
// it reads the payload.
type rankSlot struct {
	busy bool            // holds a job, requeued if the rank dies
	dead bool            // declared dead by the WatchDog
	span *telemetry.Span // the open span of the held job

	dirJob  dirJob
	copyJob copyJob
	tapeJob tapeJob
	dirRes  dirResult
	copyRes copyResult
	tapeRes tapeResult
}

// rankFIFO is an idle pool: ranks leave from the front and rejoin at
// the back. It is a ring over an array sized once to the pool, which a
// rank is in at most once, so it never grows.
type rankFIFO struct {
	ring    []int
	head, n int
}

func newRankFIFO(size int) rankFIFO { return rankFIFO{ring: make([]int, size)} }

func (q *rankFIFO) len() int { return q.n }

func (q *rankFIFO) at(i int) *int { return &q.ring[(q.head+i)%len(q.ring)] }

func (q *rankFIFO) push(rank int) {
	*q.at(q.n) = rank
	q.n++
}

func (q *rankFIFO) pop() int {
	rank := q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return rank
}

// remove takes rank out of the pool, keeping the others in order.
func (q *rankFIFO) remove(rank int) {
	for i := 0; i < q.n; i++ {
		if *q.at(i) != rank {
			continue
		}
		for ; i < q.n-1; i++ {
			*q.at(i) = *q.at(i + 1)
		}
		q.n--
		return
	}
}

// batchScratch is one worker rank's buffers, reused from batch to batch
// so that a copy or compare job allocates nothing per file.
type batchScratch struct {
	todo  []fileCopy          // files that survive the pre-pass
	srcs  []synthetic.Content // compare: source side of each todo file
	specs []pfs.FileSpec      // copy: destination writes
	dsts  []string            // copy: destinations written
}

// run holds the state of one PFTool invocation.
type run struct {
	req    Request
	clock  *simtime.Clock
	comm   *mpi.Comm
	layout rankLayout
	sch    *sched.Scheduler

	res Result

	// Manager queues (Figure 3).
	dirQ  []dirJob
	copyQ []copyJob
	tapeQ []tapeJob

	// Idle ranks of each data role, indexed by rankRole.
	idle [roleCoord]rankFIFO

	dirsOut int // dir jobs issued or queued
	copyOut int
	tapeOut int

	batch      []fileCopy // accumulating small-file batch
	batchBytes int64

	cmpBatch      []fileCopy
	cmpBatchBytes int64

	// Migrated sources awaiting Locate, with the file ID and destination
	// of each at the same index.
	tapeSrc, tapeDst []string
	tapeIDs          []vfs.FileID

	chunkRemaining map[string]int    // logical dst -> chunks outstanding
	logicalDst     map[string]string // fuse chunk dir -> the user-visible dst

	// Per-rank state, indexed by rank: the job each busy rank holds
	// (requeued if the rank dies), its report, its job span, and whether
	// the WatchDog has declared it dead. busy counts busy ranks.
	ranks []rankSlot
	busy  int

	// Fabric data-path state: the shared graph, per-node resolved
	// routes, one persistent stream per worker rank (every copy job a
	// rank runs is a segment of its stream, so small-file batches cost
	// no per-flow scheduler churn), registered flows (the WatchDog
	// samples their byte progress), and bytes of completed one-shot
	// flows.
	fab        *fabric.Fabric
	routes     map[string]fabric.Path
	streams    map[int]*fabric.Flow
	scratch    []batchScratch // indexed by rank
	flows      map[*fabric.Flow]struct{}
	movedBytes int64

	progress int64 // watchdog heartbeat
	done     bool  // set when the manager finishes; stops the watchdog
	aborted  bool

	walkDone bool

	// Telemetry: the run's root span (the job spans are in ranks),
	// counters mirroring the Result fields, queue-depth gauges, and the
	// file-size histogram.
	tel           *telemetry.Registry
	runSpan       *telemetry.Span
	ctrBytes      *telemetry.Counter
	ctrFiles      *telemetry.Counter
	ctrChunks     *telemetry.Counter
	ctrSkipped    *telemetry.Counter
	ctrRestored   *telemetry.Counter
	ctrJournal    *telemetry.Counter
	ctrRanksDied  *telemetry.Counter
	ctrHeartbeats *telemetry.Counter
	ctrTapeRead   *telemetry.Counter // TSM's series, read-only here; nil without a Restorer
	gDirQ         *telemetry.Gauge
	gCopyQ        *telemetry.Gauge
	gTapeQ        *telemetry.Gauge
	gBusy         *telemetry.Gauge
	histFile      *telemetry.Histogram
}

// nodeFor maps a rank to its FTA node (round-robin over the machine
// list, skipping the coordination ranks which do no data movement).
func (r *run) nodeFor(rank int) *cluster.Node {
	return r.req.Nodes[rank%len(r.req.Nodes)]
}

// newRun builds the state of one invocation of a validated request;
// execute runs it.
func newRun(req Request) *run {
	clock := req.SrcFS.Clock()
	l := layoutFor(req.Tunables)
	r := &run{
		req:    req,
		clock:  clock,
		comm:   mpi.New(clock, l.size),
		layout: l,
		sch:    sched.Of(clock),
	}
	r.chunkRemaining = make(map[string]int)
	r.logicalDst = make(map[string]string)
	r.ranks = make([]rankSlot, l.size)
	r.idle[roleReadDir] = newRankFIFO(len(l.readdirs))
	r.idle[roleWorker] = newRankFIFO(len(l.workers))
	r.idle[roleTapeProc] = newRankFIFO(len(l.tapeprocs))
	r.fab = r.req.SrcFS.Fabric()
	r.routes = make(map[string]fabric.Path)
	r.streams = make(map[int]*fabric.Flow)
	r.scratch = make([]batchScratch, r.layout.size)
	r.flows = make(map[*fabric.Flow]struct{})
	r.res.Op = r.req.Op
	r.res.Started = r.clock.Now()

	op := r.req.Op.String()
	r.tel = telemetry.Of(r.clock)
	r.ctrBytes = r.tel.Counter("pftool_bytes_copied_total", "op", op)
	r.ctrFiles = r.tel.Counter("pftool_files_copied_total", "op", op)
	r.ctrChunks = r.tel.Counter("pftool_chunks_copied_total", "op", op)
	r.ctrSkipped = r.tel.Counter("pftool_files_skipped_total", "op", op)
	r.ctrRestored = r.tel.Counter("pftool_files_restored_total", "op", op)
	r.ctrJournal = r.tel.Counter("pftool_journal_skips_total", "op", op)
	r.ctrRanksDied = r.tel.Counter("pftool_ranks_died_total")
	r.ctrHeartbeats = r.tel.Counter("pftool_watchdog_heartbeats_total")
	if r.req.Restorer != nil {
		// The TSM server behind the Restorer bumps this per object as
		// it comes off tape, mid-batch; the WatchDog reads it so a long
		// single-volume restore registers as progress.
		r.ctrTapeRead = r.tel.Counter("tsm_bytes_read_total")
	}
	r.gDirQ = r.tel.Gauge("pftool_queue_depth", "queue", "dir")
	r.gCopyQ = r.tel.Gauge("pftool_queue_depth", "queue", "copy")
	r.gTapeQ = r.tel.Gauge("pftool_queue_depth", "queue", "tape")
	r.gBusy = r.tel.Gauge("pftool_ranks_busy")
	r.histFile = r.tel.Histogram("pftool_file_bytes", "op", op)
	r.runSpan = r.tel.StartSpan("pftool.run", "op", op, "src", r.req.Src)
	return r
}

// execute starts every rank and runs the job to completion.
func (r *run) execute() Result {
	l := r.layout
	r.comm.Start(l.manager, r.manager)
	r.comm.Start(l.output, r.outputProc)
	r.comm.Start(l.watchdog, r.watchdog)
	for _, rank := range l.readdirs {
		rank := rank
		r.comm.Start(rank, func() { r.readDirProc(rank) })
	}
	for _, rank := range l.workers {
		rank := rank
		r.comm.Start(rank, func() { r.workerProc(rank) })
	}
	for _, rank := range l.tapeprocs {
		rank := rank
		r.comm.Start(rank, func() { r.tapeProc(rank) })
	}
	r.comm.Wait()
	r.closeSpans()
	return r.res
}

// closeSpans settles the run's telemetry after every rank has exited:
// job spans still open belong to ranks whose machines died mid-job (a
// result that never arrived), so they abort rather than leak, and the
// run span closes with the run's outcome.
func (r *run) closeSpans() {
	for rank := range r.ranks {
		s := &r.ranks[rank]
		if s.span == nil {
			continue
		}
		cause, _ := r.tel.LastEventFor(faults.NodeComponent(r.nodeFor(rank).Name))
		s.span.Abort(fmt.Sprintf("rank %d never reported back", rank), cause)
		s.span = nil
	}
	switch {
	case r.res.Stalled:
		r.runSpan.Abort("watchdog declared the run stalled", 0)
	case len(r.res.Errors) > 0:
		r.runSpan.Abort(r.res.Errors[0], 0)
	default:
		r.runSpan.End()
	}
}

// manager is rank 0: the conductor of Figure 3.
func (r *run) manager() {
	defer func() {
		r.res.Finished = r.clock.Now()
		r.res.Messages = r.comm.Sent()
		r.done = true
		r.comm.CloseAll()
	}()
	if !r.seed() {
		return
	}
	for {
		r.assign()
		if r.finished() {
			return
		}
		msg, ok := r.comm.Recv(r.layout.manager, mpi.Any, mpi.Any)
		if !ok {
			// The WatchDog closed our mailbox: the run stalled.
			r.res.Stalled = true
			return
		}
		r.handle(msg)
		if r.aborted {
			return
		}
	}
}

// seed primes the queues from the source root. Returns false on a
// fatal setup error.
func (r *run) seed() bool {
	info, err := r.req.SrcFS.Stat(r.req.Src)
	if err != nil {
		r.fail(fmt.Sprintf("stat %s: %v", r.req.Src, err))
		return false
	}
	if info.IsDir() {
		if r.req.Op == OpCopy {
			if err := r.req.DstFS.MkdirAll(r.req.Dst); err != nil {
				r.fail(err.Error())
				return false
			}
			r.res.DirsCreated++
		}
		r.dirQ = append(r.dirQ, dirJob{src: r.req.Src, dst: r.req.Dst})
		r.dirsOut++
		return true
	}
	if r.req.Op == OpCopy {
		if parent := path.Dir(r.req.Dst); parent != "/" {
			if err := r.req.DstFS.MkdirAll(parent); err != nil {
				r.fail(err.Error())
				return false
			}
		}
	}
	r.classify(info, r.req.Dst)
	r.endOfWalk()
	return true
}

// finished reports whether every queue is drained and every job done.
func (r *run) finished() bool {
	return r.dirsOut == 0 && r.copyOut == 0 && r.tapeOut == 0 &&
		len(r.dirQ) == 0 && len(r.copyQ) == 0 && len(r.tapeQ) == 0 &&
		len(r.batch) == 0 && len(r.cmpBatch) == 0 && len(r.tapeSrc) == 0
}

// assign hands queued jobs to idle processes: each job moves into the
// slot of the rank that will hold it, where a rank death finds it to
// requeue, and the rank is sent a pointer to it. A dispatched job's
// queue slot is cleared: the queue's array outlives it until append
// next moves the queue, and would keep a batch's file list alive.
func (r *run) assign() {
	for len(r.dirQ) > 0 && r.idle[roleReadDir].len() > 0 {
		rank := r.idle[roleReadDir].pop()
		s := r.hold(rank, "readdir")
		s.dirJob = r.dirQ[0]
		r.dirQ[0] = dirJob{}
		r.dirQ = r.dirQ[1:]
		r.comm.Send(r.layout.manager, rank, tagDirJob, &s.dirJob)
	}
	for len(r.copyQ) > 0 && r.idle[roleWorker].len() > 0 {
		rank := r.idle[roleWorker].pop()
		s := r.hold(rank, copyKindName(r.copyQ[0].kind))
		s.copyJob = r.copyQ[0]
		r.copyQ[0] = copyJob{}
		r.copyQ = r.copyQ[1:]
		r.comm.Send(r.layout.manager, rank, tagCopyJob, &s.copyJob)
	}
	for len(r.tapeQ) > 0 && r.idle[roleTapeProc].len() > 0 {
		rank := r.idle[roleTapeProc].pop()
		s := r.hold(rank, "tape-restore")
		s.tapeJob = r.tapeQ[0]
		r.tapeQ[0] = tapeJob{}
		r.tapeQ = r.tapeQ[1:]
		r.comm.Send(r.layout.manager, rank, tagTapeJob, &s.tapeJob)
	}
	r.gDirQ.Set(float64(len(r.dirQ)))
	r.gCopyQ.Set(float64(len(r.copyQ)))
	r.gTapeQ.Set(float64(len(r.tapeQ)))
	r.gBusy.Set(float64(r.busy))
}

// hold marks rank busy with a job of the given kind, opening the span
// that tracks it, and returns the rank's slot for the job.
func (r *run) hold(rank int, kind string) *rankSlot {
	s := &r.ranks[rank]
	s.busy = true
	r.busy++
	s.span = r.runSpan.StartChild("pftool.job",
		"kind", kind, "rank", strconv.Itoa(rank), "node", r.nodeFor(rank).Name)
	return s
}

// endJobSpan closes the span of the job the rank just reported on.
func (r *run) endJobSpan(rank int, errMsg string) {
	s := &r.ranks[rank]
	if s.span == nil {
		return
	}
	if errMsg != "" {
		s.span.Abort(errMsg, 0)
	} else {
		s.span.End()
	}
	s.span = nil
}

// copyKindName names a copyKind for span attributes.
func copyKindName(k copyKind) string {
	switch k {
	case kindChunk:
		return "copy-chunk"
	case kindFuse:
		return "copy-fuse"
	case kindCompare:
		return "compare"
	default:
		return "copy-batch"
	}
}

// handle processes one inbound message.
func (r *run) handle(msg mpi.Message) {
	if r.ranks[msg.From].dead {
		// A late report from a rank already declared dead (its machine
		// crashed mid-job but the transfer drained). The job was requeued
		// when the death was announced; counting this result too would
		// double-complete it, so it is dropped — recopying a file is
		// idempotent, double-counting its completion is not.
		return
	}
	switch msg.Tag {
	case tagIdle:
		r.markIdle(msg.From)
	case tagRankDead:
		r.rankDead(msg.Data.(int))
	case tagDirResult:
		r.markIdle(msg.From)
		res := take[dirResult](msg.Data)
		r.endJobSpan(msg.From, res.err)
		r.dirsOut--
		if res.err != "" {
			r.fail(res.err)
			return
		}
		r.expand(res)
		if r.dirsOut == 0 && len(r.dirQ) == 0 {
			r.endOfWalk()
		}
	case tagCopyResult:
		r.markIdle(msg.From)
		res := take[copyResult](msg.Data)
		r.endJobSpan(msg.From, res.err)
		r.copyOut--
		r.progress++
		r.res.FilesCopied += res.files
		r.res.FilesSkipped += res.skipped
		r.res.BytesCopied += res.bytes
		r.res.ChunksCopied += res.chunks
		r.res.ChunksSkipped += res.skChunks
		r.res.Matched += res.matched
		r.res.Mismatched += res.mismatch
		r.res.Missing += res.missing
		r.res.Mismatches = append(r.res.Mismatches, res.mismatches...)
		// Integer byte/file deltas sum exactly in float64 counters, so
		// the registry totals equal the Result fields bit-for-bit —
		// what lets experiments read headline numbers from telemetry.
		r.ctrFiles.Add(float64(res.files))
		r.ctrSkipped.Add(float64(res.skipped))
		r.ctrBytes.Add(float64(res.bytes))
		r.ctrChunks.Add(float64(res.chunks))
		if res.err != "" {
			// A failed chunk must NOT count toward its file's
			// completion: the in-progress mark stays so a restart
			// resumes instead of re-preallocating over good chunks.
			r.fail(res.err)
			return
		}
		for _, d := range res.dsts {
			r.journalMark(d)
		}
		if res.logical != "" {
			r.chunkRemaining[res.logical]--
			if r.chunkRemaining[res.logical] == 0 {
				delete(r.chunkRemaining, res.logical)
				r.res.FilesCopied++
				r.ctrFiles.Inc()
				r.req.DstFS.SetXattr(res.logical, "pfcp.inprogress", "")
				name := res.logical
				if d, ok := r.logicalDst[name]; ok {
					name = d
				}
				r.journalMark(name)
			}
		}
	case tagTapeResult:
		r.markIdle(msg.From)
		res := take[tapeResult](msg.Data)
		r.endJobSpan(msg.From, res.err)
		r.tapeOut--
		r.progress++
		if res.err != "" {
			r.fail(res.err)
			return
		}
		job := res.job
		r.res.Restored += len(job.src)
		r.ctrRestored.Add(float64(len(job.src)))
		// Restored files now copy like any resident file. The walk
		// resolved each one: it is re-stated by ID, and keeps its path.
		for i, id := range job.ids {
			info, err := r.req.SrcFS.StatID(id)
			if err != nil {
				r.fail(fmt.Sprintf("stat %s: %v", job.src[i], err))
				return
			}
			info.Path, info.Name = job.src[i], path.Base(job.src[i])
			r.classify(info, job.dst[i])
		}
		if r.tapeOut == 0 && len(r.tapeQ) == 0 {
			r.flushBatches()
		}
	}
}

// take copies a report out of the slot data points to and clears the
// slot, which would otherwise keep the report's lists alive until the
// rank's next report.
func take[T any](data any) T {
	p := data.(*T)
	v := *p
	*p = *new(T)
	return v
}

// markIdle returns a rank that reported in to its role's idle pool. A
// job it held is done, and its slot lets go of the job's lists.
func (r *run) markIdle(rank int) {
	if s := &r.ranks[rank]; s.busy {
		s.busy = false
		r.busy--
		s.dirJob, s.copyJob, s.tapeJob = dirJob{}, copyJob{}, tapeJob{}
	}
	if role := r.layout.roles[rank]; role != roleCoord {
		r.idle[role].push(rank)
	}
}

// rankDead reacts to the WatchDog declaring a data rank dead: the rank
// leaves the idle pools for good, its in-flight job (if any) goes back
// on the matching queue for a survivor — the Out counters count
// "issued or queued", so requeueing keeps them consistent — and the
// run fails cleanly if an entire pool it still needs has died.
func (r *run) rankDead(rank int) {
	s := &r.ranks[rank]
	if s.dead {
		return
	}
	s.dead = true
	r.res.RanksDied++
	r.ctrRanksDied.Inc()
	// The job's span aborts here — the WatchDog-declared death is its
	// end — citing the fault event that took the machine down.
	if s.span != nil {
		node := r.nodeFor(rank)
		cause, _ := r.tel.LastEventFor(faults.NodeComponent(node.Name))
		s.span.Abort(fmt.Sprintf("rank %d died: machine %s down", rank, node.Name), cause)
		s.span = nil
	}
	role := r.layout.roles[rank]
	r.idle[role].remove(rank)
	if s.busy {
		s.busy = false
		r.busy--
		// Requeueing a dead rank's job is a retry like any other: it
		// charges the shared budget, so a failure wave (many ranks dying
		// with work in hand) cannot amplify into an unbounded requeue
		// storm. Inert unless the run enabled the defense policy.
		if !faults.DefenseOf(r.tel.Clock()).AllowRetry("pftool.requeue") {
			r.fail(fmt.Sprintf("rank %d died and the requeue retry budget is exhausted", rank))
			return
		}
		switch role {
		case roleReadDir:
			r.dirQ = append(r.dirQ, s.dirJob)
		case roleWorker:
			r.copyQ = append(r.copyQ, s.copyJob)
		case roleTapeProc:
			r.tapeQ = append(r.tapeQ, s.tapeJob)
		}
	}
	switch {
	case r.allDead(r.layout.readdirs) && (r.dirsOut > 0 || len(r.dirQ) > 0):
		r.fail("every ReadDir rank died with directories unread")
	case r.allDead(r.layout.workers) && (r.copyOut > 0 || len(r.copyQ) > 0 || !r.walkDone):
		r.fail("every Worker rank died with copy work outstanding")
	case r.allDead(r.layout.tapeprocs) && (r.tapeOut > 0 || len(r.tapeQ) > 0 || len(r.tapeSrc) > 0):
		r.fail("every TapeProc rank died with restores outstanding")
	}
}

func (r *run) allDead(ranks []int) bool {
	for _, rk := range ranks {
		if !r.ranks[rk].dead {
			return false
		}
	}
	return len(ranks) > 0
}

// journalMark records a completed destination in the restart journal.
func (r *run) journalMark(dst string) {
	if r.req.Tunables.Journal != nil {
		r.req.Tunables.Journal.markDone(dst)
	}
}

// expand processes one exposed directory: counts, creates destination
// directories, recurses, and classifies files.
func (r *run) expand(res dirResult) {
	for _, e := range res.entries {
		dst := ""
		if res.dst != "" {
			// res.dst is already clean and rooted; joining a leaf name
			// needs no path.Clean pass (this runs once per tree entry).
			if res.dst == "/" {
				dst = "/" + e.Name
			} else {
				dst = res.dst + "/" + e.Name
			}
		}
		if e.IsDir() {
			r.res.DirsListed++
			if r.req.Op == OpCopy {
				if err := r.req.DstFS.MkdirAll(dst); err != nil {
					r.fail(err.Error())
					return
				}
				r.res.DirsCreated++
			}
			r.dirQ = append(r.dirQ, dirJob{src: e.Path, dst: dst})
			r.dirsOut++
			continue
		}
		r.res.FilesListed++
		r.res.BytesListed += e.Size
		if r.req.Tunables.Verbose {
			r.comm.Send(r.layout.manager, r.layout.output, tagOutput,
				fmt.Sprintf("%s %12d %s", e.State, e.Size, e.Path))
		}
		r.classify(e, dst)
	}
}

// classify routes one file to the right queue: tape restore for
// migrated sources, chunked paths for large files, batches otherwise.
func (r *run) classify(info pfs.Info, dst string) {
	t := r.req.Tunables
	if t.Journal != nil && r.req.Op != OpList && t.Journal.isDone(dst) {
		// A previous run completed this destination: prune it before any
		// tape restore or copy work is planned.
		r.res.JournalSkipped++
		r.ctrJournal.Inc()
		return
	}
	r.histFile.Observe(float64(info.Size))
	switch r.req.Op {
	case OpList:
		return
	case OpCompare:
		r.cmpBatch = append(r.cmpBatch, fileCopy{src: info.Path, dst: dst, id: info.ID, bytes: info.Size})
		r.cmpBatchBytes += info.Size
		if len(r.cmpBatch) >= t.CopyBatchFiles || r.cmpBatchBytes >= t.CopyBatchBytes {
			r.flushCompare()
		}
		return
	}
	// OpCopy.
	if info.State == pfs.Migrated {
		if r.req.Restorer == nil {
			r.fail(fmt.Sprintf("%s is migrated and no restorer is configured", info.Path))
			return
		}
		r.tapeSrc = append(r.tapeSrc, info.Path)
		r.tapeDst = append(r.tapeDst, dst)
		r.tapeIDs = append(r.tapeIDs, info.ID)
		return
	}
	switch {
	case info.Size >= t.VeryLargeThreshold && t.FuseChunkSize > 0:
		r.enqueueFuse(info, dst)
	case info.Size >= t.LargeFileThreshold:
		r.enqueueChunked(info, dst)
	default:
		r.batch = append(r.batch, fileCopy{src: info.Path, dst: dst, id: info.ID, bytes: info.Size})
		r.batchBytes += info.Size
		if len(r.batch) >= t.CopyBatchFiles || r.batchBytes >= t.CopyBatchBytes {
			r.flushBatch()
		}
	}
}

// enqueueChunked prepares an N-to-1 chunked copy of a single large file
// (§4.1.2(3)): the destination inode is preallocated and each worker
// overwrites one chunk.
func (r *run) enqueueChunked(info pfs.Info, dst string) {
	t := r.req.Tunables
	plan := chunkfs.PlanFor(info.Size, t.ChunkSize)
	resume := false
	if t.Restart {
		if inprog, _ := r.req.DstFS.GetXattr(dst, "pfcp.inprogress"); inprog == "1" {
			if di, err := r.req.DstFS.Stat(dst); err == nil && di.Size == info.Size {
				resume = true
			}
		}
	}
	if !resume {
		// Preallocate the full-size destination inode with placeholder
		// data so chunks can land in any order.
		placeholder := placeholderContent(dst, info.Size)
		if err := r.req.DstFS.WriteFile(dst, placeholder); err != nil {
			r.fail(err.Error())
			return
		}
		r.req.DstFS.SetXattr(dst, "pfcp.inprogress", "1")
	}
	r.chunkRemaining[dst] = plan.NumChunks
	for i := 0; i < plan.NumChunks; i++ {
		off, length := plan.ChunkRange(i)
		r.copyQ = append(r.copyQ, copyJob{
			kind: kindChunk, src: info.Path, dst: dst,
			off: off, length: length, chunkIdx: i, logical: dst,
		})
		r.copyOut++
	}
}

// enqueueFuse prepares an N-to-N copy of a very large file (§4.1.2(4)):
// the destination is a chunk directory and each worker writes an
// independent chunk file.
func (r *run) enqueueFuse(info pfs.Info, dst string) {
	t := r.req.Tunables
	plan, dir, err := chunkfs.PrepareDir(r.req.DstFS, dst, info.Size, t.FuseChunkSize)
	if err != nil {
		r.fail(err.Error())
		return
	}
	r.chunkRemaining[dir] = plan.NumChunks
	r.logicalDst[dir] = dst // journal entries use the user-visible path
	for i := 0; i < plan.NumChunks; i++ {
		off, length := plan.ChunkRange(i)
		r.copyQ = append(r.copyQ, copyJob{
			kind: kindFuse, src: info.Path,
			dst: path.Join(dir, chunkfs.ChunkName(i)),
			off: off, length: length, chunkIdx: i, logical: dir,
		})
		r.copyOut++
	}
}

// endOfWalk fires when the parallel tree walk completes: final batches
// flush and the tape restore plan is built.
func (r *run) endOfWalk() {
	r.walkDone = true
	r.flushBatches()
	r.buildTapeJobs()
}

func (r *run) flushBatches() {
	r.flushBatch()
	r.flushCompare()
}

// flushBatch queues the accumulated batch. The job gets an exact-size
// copy and the accumulator keeps its array for the next batch, so a
// batch costs one allocation, not append's doubling series.
func (r *run) flushBatch() {
	if len(r.batch) == 0 {
		return
	}
	r.copyQ = append(r.copyQ, copyJob{kind: kindBatch, batch: slices.Clone(r.batch)})
	r.copyOut++
	r.batch = r.batch[:0]
	r.batchBytes = 0
}

func (r *run) flushCompare() {
	if len(r.cmpBatch) == 0 {
		return
	}
	r.copyQ = append(r.copyQ, copyJob{kind: kindCompare, batch: slices.Clone(r.cmpBatch)})
	r.copyOut++
	r.cmpBatch = r.cmpBatch[:0]
	r.cmpBatchBytes = 0
}

// buildTapeJobs turns the migrated-file backlog into TapeCQs: grouped
// by volume and, when TapeOrdered, sorted by tape sequence with one
// queue per volume so a single TapeProc (hence a single machine)
// streams each tape front to back (§4.2.5).
func (r *run) buildTapeJobs() {
	if len(r.tapeSrc) == 0 {
		return
	}
	src, dst, ids := r.tapeSrc, r.tapeDst, r.tapeIDs
	r.tapeSrc, r.tapeDst, r.tapeIDs = nil, nil, nil
	locs, missing := r.req.Restorer.Locate(src, ids)
	for _, m := range missing {
		r.fail(fmt.Sprintf("no tape location for %s", m))
		return
	}
	// Nothing is missing, so locs[i] is the location of file i.
	if r.req.Tunables.TapeOrdered {
		byVol := make(map[string][]int32)
		for i, l := range locs {
			byVol[l.Volume] = append(byVol[l.Volume], int32(i))
		}
		vols := make([]string, 0, len(byVol))
		for v := range byVol {
			vols = append(vols, v)
		}
		sort.Strings(vols)
		for _, v := range vols {
			files := byVol[v]
			sort.Slice(files, func(a, b int) bool { return locs[files[a]].Seq < locs[files[b]].Seq })
			job := tapeJob{volume: v, src: make([]string, len(files)), dst: make([]string, len(files)), ids: make([]vfs.FileID, len(files))}
			for k, i := range files {
				job.src[k], job.dst[k], job.ids[k] = src[i], dst[i], ids[i]
				job.bytes += locs[i].Bytes
			}
			r.tapeQ = append(r.tapeQ, job)
			r.tapeOut++
		}
		return
	}
	// Naive: arrival order, fixed-size groups, no volume affinity.
	const group = 32
	for i := 0; i < len(locs); i += group {
		end := min(i+group, len(locs))
		job := tapeJob{volume: "(unordered)", src: src[i:end], dst: dst[i:end], ids: ids[i:end]}
		for _, l := range locs[i:end] {
			job.bytes += l.Bytes
		}
		r.tapeQ = append(r.tapeQ, job)
		r.tapeOut++
	}
}

// fail records a fatal error and aborts the run.
func (r *run) fail(msg string) {
	r.res.Errors = append(r.res.Errors, msg)
	r.aborted = true
}

// placeholderContent generates the preallocation filler for an N-to-1
// destination inode. The seed is derived from the path so reruns are
// deterministic.
func placeholderContent(path string, size int64) (c synthetic.Content) {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return synthetic.NewUniform(h|1<<63, size)
}
