// Package pftool is the paper's primary contribution: the Parallel
// File Tool (§4.1), a user-space MPI program that tree-walks, lists,
// copies, and compares file trees in parallel between the scratch and
// archive parallel file systems.
//
// The process architecture follows Figure 3 exactly: one Manager
// coordinating a directory queue (DirQ), a copy queue (CopyQ) and
// per-tape copy queues (TapeCQs); a pool of ReadDir processes that
// expose directories; a pool of Workers that stat and move data; a pool
// of TapeProc processes that restore migrated files in tape order; one
// OutPutProc for output; and a WatchDog that kills the run if data
// movement stalls. All processes run as ranks of an mpi.Comm, and the
// total process count is tunable per invocation (§4.1.2(5)).
//
// The three commands of §4.1.3 map to Op values: pfls (parallel list),
// pfcp (parallel copy), pfcm (parallel byte compare).
package pftool

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/hsm"
	"repro/internal/ilm"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// op selects the PFTool command.
type op int

// Operations.
const (
	OpList    op = iota // pfls
	OpCopy              // pfcp
	OpCompare           // pfcm
)

func (o op) String() string {
	switch o {
	case OpList:
		return "pfls"
	case OpCopy:
		return "pfcp"
	case OpCompare:
		return "pfcm"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// restorer recalls migrated files from the tape backend; *hsm.Engine
// is the production implementation. Files travel as parallel slices:
// ids[i] is the file ID of paths[i], as the walk resolved it, so the
// backend need not resolve the path again.
type restorer interface {
	// Locate resolves migrated files to tape locations, in input
	// order; unknown paths are left out of locs and returned in missing.
	Locate(paths []string, ids []vfs.FileID) (locs []hsm.TapeLoc, missing []string)
	// RecallPinned recalls the given files as the named client machine,
	// in the order given (the caller has already tape-ordered them),
	// admitted under the given QoS tag.
	RecallPinned(node string, paths []string, ids []vfs.FileID, qos sched.QoS) error
}

// Tunables are the runtime-adjustable parameters of §4.1.2(5).
type Tunables struct {
	NumWorkers   int // Worker MPI processes
	NumReadDirs  int // ReadDir MPI processes
	NumTapeProcs int // TapeProc MPI processes (restore direction only)

	ChunkSize          int64 // N-to-1 chunk size for single large files
	LargeFileThreshold int64 // files at least this large copy chunked
	VeryLargeThreshold int64 // files at least this large copy N-to-N via the FUSE layer
	FuseChunkSize      int64 // chunk-file size for the N-to-N path

	CopyBatchBytes int64 // small files batch up to this many bytes
	CopyBatchFiles int   // ... or this many files per copy job

	TapeOrdered bool // sort tape recalls by volume/sequence (§4.2.5)
	Restart     bool // skip chunks already marked good (§4.5)

	// Journal, when non-nil, is the restart journal shared across
	// invocations: destinations a previous run completed are skipped at
	// classification time (before any tape restore is planned), and this
	// run records its own completions into it, so an interrupted pfcp or
	// pfcm can be relaunched with the same journal and copy only what
	// remains (§4.5).
	Journal *Journal

	WatchdogInterval time.Duration // progress check period
	StallTimeout     time.Duration // kill the run after this much silence

	Verbose bool // emit one line per entry through OutPutProc

	// InjectFault, when non-nil, is consulted before each chunk/batch
	// copy; returning true makes the Worker fail that piece (test and
	// experiment hook for restartable transfers).
	InjectFault func(dstPath string, chunk int) bool
}

// DefaultTunables returns production defaults.
func DefaultTunables() Tunables {
	return Tunables{
		NumWorkers:         20,
		NumReadDirs:        4,
		NumTapeProcs:       4,
		ChunkSize:          4e9,
		LargeFileThreshold: 10e9,
		VeryLargeThreshold: 100e9,
		FuseChunkSize:      16e9,
		CopyBatchBytes:     256e6,
		CopyBatchFiles:     512,
		TapeOrdered:        true,
		WatchdogInterval:   time.Minute,
		StallTimeout:       15 * time.Minute,
	}
}

// Request describes one PFTool invocation.
type Request struct {
	Op  op
	Src string
	Dst string // unused for pfls

	SrcFS *pfs.FS
	DstFS *pfs.FS // unused for pfls

	// Nodes is the cluster's MPI machine list; worker ranks
	// are placed on these round-robin.
	Nodes []*cluster.Node
	// Restorer recalls migrated source files before copying; nil means
	// migrated files are reported as errors.
	Restorer restorer
	// Placement, when non-nil, chooses the destination storage pool per
	// file (the archive's ILM placement policy, §4.2.1: small files to
	// the slow pool). Transfer time is still charged on the default
	// pool's pipe — the slow pool holds small files, so its share of
	// the bytes is negligible.
	Placement *ilm.Placement

	// QoS tags every scheduler admission the run makes (worker copy
	// jobs, tape restores). Unset fields default per station: copy and
	// compare jobs are Batch, tape restores Interactive.
	QoS sched.QoS

	Tunables Tunables
	Output   io.Writer // OutPutProc destination; nil discards
}

// Result reports one PFTool run.
type Result struct {
	Op op

	FilesCopied  int
	FilesSkipped int // restart: destination already current
	DirsCreated  int
	BytesCopied  int64

	FilesListed int
	DirsListed  int
	BytesListed int64

	Matched    int
	Mismatched int
	Missing    int

	// Mismatches details each compare failure: which destination path
	// diverged from its source and at which byte — what an operator
	// needs to find the damage, not just count it.
	Mismatches []mismatch

	Restored      int
	ChunksCopied  int
	ChunksSkipped int

	// JournalSkipped counts files pruned from the walk because the
	// restart journal already recorded them complete.
	JournalSkipped int
	// RanksDied counts MPI ranks the WatchDog declared dead because
	// their machine went down; their in-flight jobs were requeued.
	RanksDied int

	Errors  []string
	Stalled bool

	// Messages is the MPI traffic the run generated — the coordination
	// cost that copy batching amortizes.
	Messages int

	// History is the WatchDog's periodic record (§4.1.1(3)): files and
	// bytes copied as of each sampling interval, the "current and
	// historical statistics" the paper's WatchDog keeps.
	History []historyPoint

	Started  time.Duration
	Finished time.Duration

	OutputLines int
}

// historyPoint is one WatchDog sample.
type historyPoint struct {
	At    time.Duration // virtual time of the sample
	Files int
	Bytes int64
}

// mismatch is one pfcm compare failure: source and destination differ
// starting at byte Offset (the first divergent byte; -1 when the two
// sides could not be compared byte-for-byte).
type mismatch struct {
	Src    string
	Dst    string
	Offset int64
}

func (m mismatch) String() string {
	return fmt.Sprintf("%s differs from %s at byte %d", m.Dst, m.Src, m.Offset)
}

// Elapsed is the virtual wall-clock duration of the run.
func (r Result) Elapsed() time.Duration { return r.Finished - r.Started }

// Rate is the achieved copy data rate in bytes per second.
func (r Result) Rate() float64 {
	e := r.Elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(r.BytesCopied) / e
}

// Summary renders the end-of-job performance report the Manager prints.
func (r Result) Summary() string {
	switch r.Op {
	case OpList:
		return fmt.Sprintf("%v: %d files, %d dirs, %d bytes in %v",
			r.Op, r.FilesListed, r.DirsListed, r.BytesListed, r.Elapsed())
	case OpCompare:
		return fmt.Sprintf("%v: %d matched, %d mismatched, %d missing in %v",
			r.Op, r.Matched, r.Mismatched, r.Missing, r.Elapsed())
	default:
		return fmt.Sprintf("%v: %d files, %d bytes in %v (%.1f MB/s), %d restored, %d chunks (+%d skipped), %d errors",
			r.Op, r.FilesCopied, r.BytesCopied, r.Elapsed(), r.Rate()/1e6,
			r.Restored, r.ChunksCopied, r.ChunksSkipped, len(r.Errors))
	}
}

// rankRole is what a rank does. The data roles come first: they index
// the Manager's idle pools.
type rankRole uint8

const (
	roleReadDir  rankRole = iota
	roleWorker            // Worker
	roleTapeProc          // TapeProc
	roleCoord             // Manager, OutPutProc and WatchDog: no pool
)

// rankLayout computes the MPI rank assignment of Figure 3. The data
// ranks follow the three coordination ranks: ReadDirs, then Workers,
// then TapeProcs.
type rankLayout struct {
	manager   int
	output    int
	watchdog  int
	readdirs  []int
	workers   []int
	tapeprocs []int
	roles     []rankRole // indexed by rank
	size      int
}

func layoutFor(t Tunables) rankLayout {
	l := rankLayout{manager: 0, output: 1, watchdog: 2}
	l.roles = []rankRole{roleCoord, roleCoord, roleCoord}
	add := func(n int, role rankRole) (ranks []int) {
		for i := 0; i < n; i++ {
			ranks = append(ranks, len(l.roles))
			l.roles = append(l.roles, role)
		}
		return ranks
	}
	l.readdirs = add(t.NumReadDirs, roleReadDir)
	l.workers = add(t.NumWorkers, roleWorker)
	l.tapeprocs = add(t.NumTapeProcs, roleTapeProc)
	l.size = len(l.roles)
	return l
}

// Run executes one PFTool invocation on the clock of the request's
// source file system and returns the Manager's final report. It must be
// called from a simulation actor.
func Run(req Request) (Result, error) {
	if err := validate(&req); err != nil {
		return Result{}, err
	}
	res := newRun(req).execute()
	if len(res.Errors) > 0 {
		return res, fmt.Errorf("pftool: %s: %s", req.Op, res.Errors[0])
	}
	if res.Stalled {
		return res, fmt.Errorf("pftool: %s: watchdog killed a stalled run", req.Op)
	}
	return res, nil
}

func validate(req *Request) error {
	if req.SrcFS == nil {
		return fmt.Errorf("pftool: no source file system")
	}
	if req.Op != OpList && req.DstFS == nil {
		return fmt.Errorf("pftool: %v needs a destination file system", req.Op)
	}
	if len(req.Nodes) == 0 {
		return fmt.Errorf("pftool: empty machine list")
	}
	t := &req.Tunables
	if t.NumWorkers <= 0 || t.NumReadDirs <= 0 {
		return fmt.Errorf("pftool: need at least one worker and one readdir process")
	}
	if t.NumTapeProcs < 0 {
		return fmt.Errorf("pftool: negative tape process count")
	}
	if t.NumTapeProcs == 0 {
		t.NumTapeProcs = 1 // the pool always exists; it idles when unused
	}
	if t.ChunkSize <= 0 || t.CopyBatchBytes <= 0 || t.CopyBatchFiles <= 0 {
		return fmt.Errorf("pftool: chunk and batch sizes must be positive")
	}
	if t.LargeFileThreshold <= 0 {
		t.LargeFileThreshold = 10e9
	}
	if t.VeryLargeThreshold < t.LargeFileThreshold {
		t.VeryLargeThreshold = t.LargeFileThreshold * 10
	}
	if t.FuseChunkSize <= 0 {
		t.FuseChunkSize = 16e9
	}
	if t.WatchdogInterval <= 0 {
		t.WatchdogInterval = time.Minute
	}
	if t.StallTimeout <= 0 {
		t.StallTimeout = 15 * time.Minute
	}
	return nil
}
