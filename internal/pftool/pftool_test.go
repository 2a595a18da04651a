package pftool

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chunkfs"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/hsm"
	"repro/internal/ilm"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/tsm"
	"repro/internal/vfs"
)

// env is a full archive deployment for PFTool tests.
type env struct {
	clock   *simtime.Clock
	scratch *pfs.FS
	archive *pfs.FS
	cl      *cluster.Cluster
	lib     *tape.Library
	srv     *tsm.Server
	shadow  *metadb.DB
	eng     *hsm.Engine
}

func newEnv() *env {
	clock := simtime.NewClock()
	scratchCfg := pfs.PanasasConfig("panfs")
	scratchCfg.Attach = []string{fabric.Compute} // far side of the trunk
	scratch := pfs.New(clock, scratchCfg)
	archive := pfs.New(clock, pfs.GPFSConfig("gpfs"))
	cl := cluster.New(clock, cluster.RoadrunnerConfig())
	lib := tape.NewLibrary(clock, 8, 64, 2, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	shadow := metadb.New(clock, 100*time.Microsecond)
	srv.OnChange(shadow.Apply)
	eng := hsm.New(clock, archive, srv, shadow, cl.Nodes(), hsm.Config{})
	return &env{clock: clock, scratch: scratch, archive: archive, cl: cl, lib: lib, srv: srv, shadow: shadow, eng: eng}
}

func (e *env) run(t *testing.T, fn func()) time.Duration {
	t.Helper()
	e.clock.Go(fn)
	end, err := e.clock.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// seedTree builds a small tree on fs under root: files of the given
// sizes spread over two subdirectories. Returns the file paths.
func seedTree(t *testing.T, fs *pfs.FS, root string, sizes []int64) []string {
	t.Helper()
	var paths []string
	dirs := []string{root + "/a", root + "/b/sub"}
	for _, d := range dirs {
		if err := fs.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	var specs []pfs.FileSpec
	for i, size := range sizes {
		p := fmt.Sprintf("%s/f%03d", dirs[i%len(dirs)], i)
		specs = append(specs, pfs.FileSpec{Path: p, Content: synthetic.NewUniform(uint64(1000+i), size)})
		paths = append(paths, p)
	}
	if err := fs.WriteFiles(specs); err != nil {
		t.Fatal(err)
	}
	return paths
}

func tunablesForTest() Tunables {
	t := DefaultTunables()
	t.NumWorkers = 8
	t.NumReadDirs = 2
	t.NumTapeProcs = 2
	return t
}

func baseRequest(e *env, op op) Request {
	return Request{
		Op:       op,
		Src:      "/src",
		Dst:      "/dst",
		SrcFS:    e.scratch,
		DstFS:    e.archive,
		Nodes:    e.cl.Nodes(),
		Tunables: tunablesForTest(),
	}
}

func TestCopyTreeRoundTrip(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		paths := seedTree(t, e.scratch, "/src", []int64{1e6, 5e6, 100, 42e6, 3e3, 7e6})
		res, err := Run(baseRequest(e, OpCopy))
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesCopied != 6 {
			t.Errorf("FilesCopied = %d, want 6", res.FilesCopied)
		}
		wantBytes := int64(1e6 + 5e6 + 100 + 42e6 + 3e3 + 7e6)
		if res.BytesCopied != wantBytes {
			t.Errorf("BytesCopied = %d, want %d", res.BytesCopied, wantBytes)
		}
		if res.DirsCreated < 4 { // /dst, /dst/a, /dst/b, /dst/b/sub
			t.Errorf("DirsCreated = %d, want >= 4", res.DirsCreated)
		}
		for _, p := range paths {
			dst := "/dst" + strings.TrimPrefix(p, "/src")
			src, _ := e.scratch.ReadContent(p)
			got, err := e.archive.ReadContent(dst)
			if err != nil {
				t.Fatalf("dst %s: %v", dst, err)
			}
			if !got.Equal(src) {
				t.Errorf("content mismatch at %s", dst)
			}
		}
		if res.Elapsed() <= 0 {
			t.Error("no virtual time elapsed")
		}
	})
}

func TestCopySingleFile(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		e.scratch.MkdirAll("/src")
		e.scratch.WriteFile("/src/solo", synthetic.NewUniform(1, 8e6))
		req := baseRequest(e, OpCopy)
		req.Src = "/src/solo"
		req.Dst = "/dst/solo"
		e.archive.MkdirAll("/dst")
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesCopied != 1 || res.BytesCopied != 8e6 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestListCountsEverything(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{10, 20, 30, 40})
		req := baseRequest(e, OpList)
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesListed != 4 || res.BytesListed != 100 {
			t.Errorf("res = %+v", res)
		}
		if res.DirsListed != 3 { // a, b, b/sub
			t.Errorf("DirsListed = %d, want 3", res.DirsListed)
		}
		if res.FilesCopied != 0 || res.BytesCopied != 0 {
			t.Error("pfls moved data")
		}
	})
}

func TestListVerboseOutput(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{10, 20})
		var sb strings.Builder
		req := baseRequest(e, OpList)
		req.Tunables.Verbose = true
		req.Output = &sb
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputLines != 2 {
			t.Errorf("OutputLines = %d, want 2", res.OutputLines)
		}
		if !strings.Contains(sb.String(), "/src/a/f000") {
			t.Errorf("output missing listing line: %q", sb.String())
		}
	})
}

func TestCompareAfterCopyMatches(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{1e6, 2e6, 3e6})
		if _, err := Run(baseRequest(e, OpCopy)); err != nil {
			t.Fatal(err)
		}
		res, err := Run(baseRequest(e, OpCompare))
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != 3 || res.Mismatched != 0 || res.Missing != 0 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestCompareDetectsCorruptionAndMissing(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		paths := seedTree(t, e.scratch, "/src", []int64{1e6, 2e6, 3e6})
		if _, err := Run(baseRequest(e, OpCopy)); err != nil {
			t.Fatal(err)
		}
		// Corrupt one destination file and delete another.
		dst0 := "/dst" + strings.TrimPrefix(paths[0], "/src")
		e.archive.WriteAt(dst0, 100, synthetic.NewUniform(666, 10))
		dst1 := "/dst" + strings.TrimPrefix(paths[1], "/src")
		e.archive.Remove(dst1)
		res, err := Run(baseRequest(e, OpCompare))
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != 1 || res.Mismatched != 1 || res.Missing != 1 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestLargeFileChunkedNto1(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		e.scratch.MkdirAll("/src")
		content := synthetic.NewUniform(7, 20e9) // 20 GB: 5 chunks at 4 GB
		e.scratch.WriteFile("/src/big", content)
		req := baseRequest(e, OpCopy)
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksCopied != 5 {
			t.Errorf("ChunksCopied = %d, want 5", res.ChunksCopied)
		}
		if res.FilesCopied != 1 {
			t.Errorf("FilesCopied = %d, want 1", res.FilesCopied)
		}
		got, err := e.archive.ReadContent("/dst/big")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(content) {
			t.Error("reassembled content mismatch")
		}
		if mark, _ := e.archive.GetXattr("/dst/big", "pfcp.inprogress"); mark != "" {
			t.Error("inprogress mark not cleared")
		}
	})
}

func TestVeryLargeFileFuseNtoN(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		e.scratch.MkdirAll("/src")
		content := synthetic.NewUniform(9, 120e9) // > VeryLargeThreshold
		e.scratch.WriteFile("/src/huge", content)
		req := baseRequest(e, OpCopy)
		req.Tunables.FuseChunkSize = 16e9 // 8 chunks
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksCopied != 8 {
			t.Errorf("ChunksCopied = %d, want 8", res.ChunksCopied)
		}
		dir := chunkfs.ChunkDir("/dst/huge")
		if !e.archive.Exists(dir) {
			t.Fatal("chunk dir missing on destination")
		}
		chunks, _ := e.archive.ReadDir(dir)
		if len(chunks) != 8 {
			t.Errorf("chunk files = %d, want 8", len(chunks))
		}
		// The FUSE view reassembles to the original.
		if err := chunkfs.Join(e.archive, dir, "/dst/huge"); err != nil {
			t.Fatal(err)
		}
		got, _ := e.archive.ReadContent("/dst/huge")
		if !got.Equal(content) {
			t.Error("joined content mismatch")
		}
	})
}

func TestMoreWorkersGoFaster(t *testing.T) {
	elapsed := func(workers int) time.Duration {
		e := newEnv()
		var d time.Duration
		e.run(t, func() {
			sizes := make([]int64, 40)
			for i := range sizes {
				sizes[i] = 2e9
			}
			seedTree(t, e.scratch, "/src", sizes)
			req := baseRequest(e, OpCopy)
			req.Tunables.NumWorkers = workers
			res, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			d = res.Elapsed()
		})
		return d
	}
	one := elapsed(1)
	sixteen := elapsed(16)
	// One worker is NIC-bound (1.18 GB/s); sixteen saturate the trunk
	// (1.87 GB/s). 80 GB: ~68s vs ~43s.
	if sixteen >= one {
		t.Errorf("16 workers (%v) not faster than 1 (%v)", sixteen, one)
	}
	secs := 80e9 / 1.87e9 // trunk-bound seconds for 80 GB
	trunkBound := time.Duration(secs * float64(time.Second))
	if sixteen > trunkBound*11/10 {
		t.Errorf("16 workers (%v) should approach the trunk bound (%v)", sixteen, trunkBound)
	}
}

func TestRestartSkipsCurrentFiles(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{1e6, 2e6, 3e6})
		if _, err := Run(baseRequest(e, OpCopy)); err != nil {
			t.Fatal(err)
		}
		req := baseRequest(e, OpCopy)
		req.Tunables.Restart = true
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesSkipped != 3 || res.FilesCopied != 0 {
			t.Errorf("res = %+v, want all skipped", res)
		}
		if res.BytesCopied != 0 {
			t.Errorf("BytesCopied = %d, want 0", res.BytesCopied)
		}
	})
}

func TestRestartableChunkedTransfer(t *testing.T) {
	// §4.5: fail mid-transfer, then resume without re-sending good
	// chunks.
	e := newEnv()
	e.run(t, func() {
		e.scratch.MkdirAll("/src")
		content := synthetic.NewUniform(11, 40e9) // 10 chunks at 4 GB
		e.scratch.WriteFile("/src/big", content)

		req := baseRequest(e, OpCopy)
		failed := false
		req.Tunables.InjectFault = func(dst string, chunk int) bool {
			if chunk == 6 && !failed {
				failed = true
				return true
			}
			return false
		}
		if _, err := Run(req); err == nil {
			t.Fatal("expected injected failure")
		}

		// Resume.
		req2 := baseRequest(e, OpCopy)
		req2.Tunables.Restart = true
		res, err := Run(req2)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksSkipped == 0 {
			t.Error("restart did not skip any good chunks")
		}
		if res.ChunksCopied == 0 {
			t.Error("restart copied nothing")
		}
		if res.ChunksSkipped+res.ChunksCopied != 10 {
			t.Errorf("chunks skipped+copied = %d, want 10", res.ChunksSkipped+res.ChunksCopied)
		}
		got, err := e.archive.ReadContent("/dst/big")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(content) {
			t.Error("content mismatch after restart")
		}
	})
}

func TestTapeRestorePathCopiesMigratedFiles(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		// Stage files on the archive and migrate them to tape.
		var infos []pfs.Info
		e.archive.MkdirAll("/arc/proj")
		for i := 0; i < 10; i++ {
			p := fmt.Sprintf("/arc/proj/f%02d", i)
			e.archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), 500e6))
			info, _ := e.archive.Stat(p)
			infos = append(infos, info)
		}
		if _, err := e.eng.Migrate(infos, hsm.MigrateOptions{Balanced: true}); err != nil {
			t.Fatal(err)
		}
		// Retrieve: pfcp archive -> scratch with the TapeProc path.
		req := Request{
			Op: OpCopy, Src: "/arc/proj", Dst: "/scratch/proj",
			SrcFS: e.archive, DstFS: e.scratch,
			Nodes:    e.cl.Nodes(),
			Restorer: e.eng,
			Tunables: tunablesForTest(),
		}
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Restored != 10 {
			t.Errorf("Restored = %d, want 10", res.Restored)
		}
		if res.FilesCopied != 10 {
			t.Errorf("FilesCopied = %d, want 10", res.FilesCopied)
		}
		for i := 0; i < 10; i++ {
			p := fmt.Sprintf("/scratch/proj/f%02d", i)
			got, err := e.scratch.ReadContent(p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(synthetic.NewUniform(uint64(i+1), 500e6)) {
				t.Errorf("content mismatch at %s", p)
			}
		}
	})
}

func TestMigratedSourceWithoutRestorerFails(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		e.archive.MkdirAll("/arc")
		e.archive.WriteFile("/arc/f", synthetic.NewUniform(1, 1e9))
		info, _ := e.archive.Stat("/arc/f")
		e.eng.Migrate([]pfs.Info{info}, hsm.MigrateOptions{})
		req := Request{
			Op: OpCopy, Src: "/arc", Dst: "/out",
			SrcFS: e.archive, DstFS: e.scratch,
			Nodes:    e.cl.Nodes(),
			Tunables: tunablesForTest(),
		}
		if _, err := Run(req); err == nil {
			t.Error("expected failure for migrated source without restorer")
		}
	})
}

// stuckRestorer simulates a wedged tape backend: recalls take ten hours.
type stuckRestorer struct {
	clock *simtime.Clock
}

func (s stuckRestorer) Locate(paths []string, _ []vfs.FileID) ([]hsm.TapeLoc, []string) {
	out := make([]hsm.TapeLoc, len(paths))
	for i, p := range paths {
		out[i] = hsm.TapeLoc{Path: p, Volume: "VOL0001", Seq: i + 1, Bytes: 1}
	}
	return out, nil
}

func (s stuckRestorer) RecallPinned(node string, paths []string, ids []vfs.FileID, qos sched.QoS) error {
	s.clock.Sleep(10 * time.Hour)
	return nil
}

func TestWatchdogKillsStalledRun(t *testing.T) {
	e := newEnv()
	e.clock.Go(func() {
		e.archive.MkdirAll("/arc")
		e.archive.WriteFile("/arc/f", synthetic.NewUniform(1, 1e9))
		info, _ := e.archive.Stat("/arc/f")
		e.eng.Migrate([]pfs.Info{info}, hsm.MigrateOptions{})
		req := Request{
			Op: OpCopy, Src: "/arc", Dst: "/out",
			SrcFS: e.archive, DstFS: e.scratch,
			Nodes:    e.cl.Nodes(),
			Restorer: stuckRestorer{clock: e.clock},
			Tunables: tunablesForTest(),
		}
		req.Tunables.WatchdogInterval = time.Minute
		req.Tunables.StallTimeout = 5 * time.Minute
		res, err := Run(req)
		if err == nil {
			t.Error("expected stall error")
		}
		if !res.Stalled {
			t.Error("Stalled flag not set")
		}
	})
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// timedRestorer records the longest single RecallPinned call (one
// volume batch) it served.
type timedRestorer struct {
	*hsm.Engine
	clock   *simtime.Clock
	longest *time.Duration
}

func (r timedRestorer) RecallPinned(node string, paths []string, ids []vfs.FileID, qos sched.QoS) error {
	start := r.clock.Now()
	err := r.Engine.RecallPinned(node, paths, ids, qos)
	if d := r.clock.Now() - start; d > *r.longest {
		*r.longest = d
	}
	return err
}

// TestWatchdogCountsRestoreProgress: a TapeProc reports to the Manager
// only when its whole volume batch is back, so a healthy volume restore
// longer than StallTimeout used to be killed as a stall. Objects coming
// off tape mid-batch count as progress; TestWatchdogKillsStalledRun
// holds the other side (a restore that reads nothing still dies).
func TestWatchdogCountsRestoreProgress(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		var infos []pfs.Info
		e.archive.MkdirAll("/arc/proj")
		for i := 0; i < 60; i++ {
			p := fmt.Sprintf("/arc/proj/f%02d", i)
			e.archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), 8e9))
			info, _ := e.archive.Stat(p)
			infos = append(infos, info)
		}
		if _, err := e.eng.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		var longest time.Duration
		req := Request{
			Op: OpCopy, Src: "/arc/proj", Dst: "/scratch/proj",
			SrcFS: e.archive, DstFS: e.scratch,
			Nodes:    e.cl.Nodes(),
			Restorer: timedRestorer{e.eng, e.clock, &longest},
			Tunables: tunablesForTest(),
		}
		req.Tunables.WatchdogInterval = time.Minute
		req.Tunables.StallTimeout = 3 * time.Minute
		res, err := Run(req)
		if longest <= req.Tunables.StallTimeout {
			t.Fatalf("longest volume restore %v does not outlast StallTimeout %v; the test needs bigger volumes",
				longest, req.Tunables.StallTimeout)
		}
		if err != nil || res.Stalled {
			t.Fatalf("healthy restore killed: Stalled=%v err=%v", res.Stalled, err)
		}
		if res.Restored != 60 || res.FilesCopied != 60 {
			t.Errorf("Restored=%d FilesCopied=%d, want 60/60", res.Restored, res.FilesCopied)
		}
	})
}

func TestPlacementRoutesSmallFilesToSlowPool(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{100, 2048, 50e6, 90e6})
		placement := ilm.ArchivePlacement(1e6)
		req := baseRequest(e, OpCopy)
		req.Placement = &placement
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
		slow, _ := e.archive.Pool("slow")
		fast, _ := e.archive.Pool("fast")
		if slow.Used() != 100+2048 {
			t.Errorf("slow pool = %d, want 2148 (the two small files)", slow.Used())
		}
		if fast.Used() != 140e6 {
			t.Errorf("fast pool = %d, want 140e6", fast.Used())
		}
	})
}

func TestValidationErrors(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		if _, err := Run(Request{Op: OpCopy}); err == nil {
			t.Error("missing FS should fail")
		}
		req := baseRequest(e, OpCopy)
		req.Nodes = nil
		if _, err := Run(req); err == nil {
			t.Error("empty machine list should fail")
		}
		req = baseRequest(e, OpCopy)
		req.Tunables.NumWorkers = 0
		if _, err := Run(req); err == nil {
			t.Error("zero workers should fail")
		}
		req = baseRequest(e, OpCopy)
		req.Src = "/does/not/exist"
		if _, err := Run(req); err == nil {
			t.Error("missing source should fail")
		}
	})
}

func TestSummaryStrings(t *testing.T) {
	r := Result{Op: OpCopy, FilesCopied: 3, BytesCopied: 1e6, Finished: time.Second}
	if !strings.Contains(r.Summary(), "pfcp") {
		t.Errorf("Summary = %q", r.Summary())
	}
	r.Op = OpList
	if !strings.Contains(r.Summary(), "pfls") {
		t.Errorf("Summary = %q", r.Summary())
	}
	r.Op = OpCompare
	if !strings.Contains(r.Summary(), "pfcm") {
		t.Errorf("Summary = %q", r.Summary())
	}
}
