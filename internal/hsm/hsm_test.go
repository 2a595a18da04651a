package hsm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/telemetry"
	"repro/internal/tsm"
)

type env struct {
	clock  *simtime.Clock
	fs     *pfs.FS
	lib    *tape.Library
	srv    *tsm.Server
	shadow *metadb.DB
	cl     *cluster.Cluster
	eng    *Engine
}

func newEnv(t testing.TB, drives int, cfg Config) *env {
	t.Helper()
	return newEnvMeta(t, drives, cfg, 0)
}

// newEnvMeta is newEnv with the file system's metadata operations
// costing metaOpCost each (newEnv's are free).
func newEnvMeta(t testing.TB, drives int, cfg Config, metaOpCost time.Duration) *env {
	t.Helper()
	clock := simtime.NewClock()
	fsCfg := pfs.GPFSConfig("gpfs")
	fsCfg.MetaOpCost = metaOpCost
	fsCfg.ScanPerInode = 0
	fs := pfs.New(clock, fsCfg)
	lib := tape.NewLibrary(clock, drives, 64, 2, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	shadow := metadb.New(clock, 100*time.Microsecond)
	srv.OnChange(shadow.Apply)
	clCfg := cluster.RoadrunnerConfig()
	cl := cluster.New(clock, clCfg)
	eng := New(clock, fs, srv, shadow, cl.Nodes(), cfg)
	return &env{clock: clock, fs: fs, lib: lib, srv: srv, shadow: shadow, cl: cl, eng: eng}
}

// count reads a lifetime counter from the env's registry; each env
// runs one engine on its clock, so the series is that engine's.
func (e *env) count(name string) int {
	return int(telemetry.Of(e.clock).Counter(name).Value())
}

// rewriteFromSource moves object id to a fresh primary location the
// way the program does: its tape copy goes bad, and a scrub pass
// rewrites it from the file still on disk.
func rewriteFromSource(t *testing.T, srv *tsm.Server, lib *tape.Library, id uint64) {
	t.Helper()
	obj, err := srv.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := lib.Cartridge(obj.Volume)
	if err != nil {
		t.Fatal(err)
	}
	vol.CorruptFile(obj.Seq, 0)
	sc := tsm.NewScrubber(srv, tsm.ScrubConfig{RepairFromSource: func(o tsm.Object) bool { return o.ID == id }})
	if rep := sc.ScrubOnce(); rep.Repaired != 1 {
		t.Fatalf("scrub repaired %d objects, want object %d rewritten", rep.Repaired, id)
	}
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

// mkFiles creates n files of the given size under dir and returns infos.
func (e *env) mkFiles(t testing.TB, dir string, n int, size int64) []pfs.Info {
	t.Helper()
	if err := e.fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	specs := make([]pfs.FileSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = pfs.FileSpec{
			Path:    fmt.Sprintf("%s/f%05d", dir, i),
			Content: synthetic.NewUniform(uint64(i+1), size),
		}
	}
	if err := e.fs.WriteFiles(specs); err != nil {
		t.Fatal(err)
	}
	infos := make([]pfs.Info, n)
	for i := range specs {
		info, err := e.fs.Stat(specs[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		infos[i] = info
	}
	return infos
}

func TestMigrateStubsFiles(t *testing.T) {
	e := newEnv(t, 4, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 8, 1e9)
		res, err := e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 8 || res.Bytes != 8e9 {
			t.Errorf("res = %+v", res)
		}
		for _, f := range files {
			_, st, _ := e.fs.Lookup(f.Path)
			if st != pfs.Migrated {
				t.Errorf("%s state = %v, want migrated", f.Path, st)
			}
		}
		pool := e.fs.DefaultPool()
		if pool.Used() != 0 {
			t.Errorf("pool.Used = %d, want 0 after punch", pool.Used())
		}
		if e.srv.NumObjects() != 8 {
			t.Errorf("TSM objects = %d, want 8", e.srv.NumObjects())
		}
		if e.shadow.Len() != 8 {
			t.Errorf("shadow rows = %d, want 8", e.shadow.Len())
		}
	})
}

func TestMigrateSkipsNonResident(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 2, 1e6)
		e.eng.Migrate(files[:1], MigrateOptions{})
		again, _ := e.fs.Stat(files[0].Path)
		res, err := e.eng.Migrate([]pfs.Info{again, files[1]}, MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 1 || res.Skipped != 1 {
			t.Errorf("res = %+v, want 1 file 1 skipped", res)
		}
	})
}

func TestPartitionBalancedEvensBytes(t *testing.T) {
	// A skewed list: one 100 GB file plus many 1 GB files. Round-robin
	// by list position gives one bin a huge makespan; balanced LPT
	// spreads bytes within the largest single file.
	var files []pfs.Info
	add := func(size int64) {
		var i pfs.Info
		i.Size = size
		files = append(files, i)
	}
	add(100e9)
	for i := 0; i < 30; i++ {
		add(1e9)
	}
	spread := func(bins [][]pfs.Info) (min, max int64) {
		for i, bin := range bins {
			var b int64
			for _, f := range bin {
				b += f.Size
			}
			if i == 0 || b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		return
	}
	_, rrMax := spread(partitionRoundRobin(files, 10))
	_, balMax := spread(partitionBalanced(files, 10))
	if balMax > 101e9 || balMax < 100e9 {
		t.Errorf("balanced max bin = %d, want ~100e9 (dominated by largest file)", balMax)
	}
	if rrMax < balMax {
		t.Errorf("round-robin max (%d) should be >= balanced max (%d)", rrMax, balMax)
	}
}

func TestBalancedMigrationFinishesTogether(t *testing.T) {
	// §4.2.4: balanced distribution lets migrations finish at about the
	// same time across machines.
	finishSpread := func(balanced bool) time.Duration {
		e := newEnv(t, 10, Config{})
		var spread time.Duration
		e.run(t, func() {
			var files []pfs.Info
			files = append(files, e.mkFiles(t, "/big", 4, 40e9)...)
			files = append(files, e.mkFiles(t, "/small", 40, 2e9)...)
			res, err := e.eng.Migrate(files, MigrateOptions{Balanced: balanced})
			if err != nil {
				t.Fatal(err)
			}
			var min, max time.Duration
			first := true
			for i, f := range res.NodeFinish {
				if res.NodeBytes[i] == 0 {
					continue
				}
				if first || f < min {
					min = f
				}
				if first || f > max {
					max = f
				}
				first = false
			}
			spread = max - min
		})
		return spread
	}
	bal := finishSpread(true)
	naive := finishSpread(false)
	if bal >= naive {
		t.Errorf("balanced finish spread (%v) should beat round-robin (%v)", bal, naive)
	}
}

func TestRecallRoundTripRestoresData(t *testing.T) {
	e := newEnv(t, 4, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 6, 2e9)
		if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, len(files))
		for i, f := range files {
			paths[i] = f.Path
		}
		res, err := e.eng.Recall(paths, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 6 || res.Bytes != 12e9 {
			t.Errorf("res = %+v", res)
		}
		for i, f := range files {
			_, st, _ := e.fs.Lookup(f.Path)
			if st != pfs.Premigrated {
				t.Errorf("%s state = %v, want premigrated after recall", f.Path, st)
			}
			got, err := e.fs.ReadContent(f.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(synthetic.NewUniform(uint64(i+1), 2e9)) {
				t.Errorf("%s content mismatch after recall", f.Path)
			}
		}
	})
}

// A stub is found by its file ID, not by the path it was migrated
// under: a renamed stub recalls from its object, although neither the
// shadow row nor TSM's object names the new path.
func TestRecallRenamedStub(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/e", 1, 2e9)
		if _, err := e.eng.Migrate(files, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Rename(files[0].Path, "/e/moved"); err != nil {
			t.Fatal(err)
		}
		res, err := e.eng.Recall([]string{"/e/moved"}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 1 || res.Bytes != 2e9 {
			t.Errorf("recall of the renamed stub: %+v, want 1 file and 2 GB", res)
		}
		if _, st, _ := e.fs.Lookup("/e/moved"); st != pfs.Premigrated {
			t.Errorf("/e/moved is %v after recall, want premigrated", st)
		}
		got, err := e.fs.ReadContent("/e/moved")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(synthetic.NewUniform(1, 2e9)) {
			t.Error("/e/moved content mismatch after recall")
		}
	})
}

func TestRecallSkipsResident(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 1, 1e6)
		res, err := e.eng.Recall([]string{files[0].Path}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 0 {
			t.Errorf("recalled %d resident files", res.Files)
		}
	})
}

func TestRecallUnknownPathSkipped(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		res, err := e.eng.Recall([]string{"/nope"}, RecallNaive)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 0 || res.Bytes != 0 {
			t.Errorf("recall of an unknown path = %+v, want nothing recalled", res)
		}
	})
}

func TestOrderedRecallBeatsNaive(t *testing.T) {
	// §6.2: naive recall sprays a volume's files across machines,
	// forcing rewind + label verification on every hand-off; ordered
	// sticky recall streams each tape on one machine.
	elapsed := func(mode RecallMode) (time.Duration, tape.Stats) {
		e := newEnv(t, 2, Config{Group: "proj"})
		var d time.Duration
		e.run(t, func() {
			files := e.mkFiles(t, "/d", 40, 500e6)
			if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: false}); err != nil {
				t.Fatal(err)
			}
			paths := make([]string, len(files))
			for i, f := range files {
				paths[i] = f.Path
			}
			start := e.clock.Now()
			if _, err := e.eng.Recall(paths, mode); err != nil {
				t.Fatal(err)
			}
			d = e.clock.Now() - start
		})
		return d, e.lib.TotalStats()
	}
	ordTime, ordStats := elapsed(RecallOrdered)
	naiveTime, naiveStats := elapsed(RecallNaive)
	if ordTime >= naiveTime {
		t.Errorf("ordered recall (%v) should beat naive (%v)", ordTime, naiveTime)
	}
	if ordStats.LabelVerifies >= naiveStats.LabelVerifies {
		t.Errorf("ordered verifies (%d) should be fewer than naive (%d)",
			ordStats.LabelVerifies, naiveStats.LabelVerifies)
	}
}

func TestAggregationBundlesSmallFiles(t *testing.T) {
	e := newEnv(t, 2, Config{AggregateThreshold: 100e6, AggregateTarget: 1e9})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 50, 8e6) // 50 x 8 MB
		res, err := e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 50 {
			t.Errorf("Files = %d, want 50", res.Files)
		}
		if n := e.srv.NumObjects(); n == 0 || n > 12 {
			t.Errorf("TSM objects = %d, want a few bundles (one object each)", n)
		}
		// Members recall through the aggregate.
		rres, err := e.eng.Recall([]string{files[3].Path, files[7].Path}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if rres.Files < 2 {
			t.Errorf("recalled %d member files, want >= 2", rres.Files)
		}
		_, st, _ := e.fs.Lookup(files[3].Path)
		if st == pfs.Migrated {
			t.Error("member still migrated after aggregate recall")
		}
	})
}

func TestAggregationSpeedsUpSmallFileMigration(t *testing.T) {
	// §6.1: the per-file transaction penalty collapses throughput for
	// 8 MB files; aggregation keeps the drives streaming.
	migrate := func(cfg Config) time.Duration {
		e := newEnv(t, 4, cfg)
		var d time.Duration
		e.run(t, func() {
			files := e.mkFiles(t, "/d", 200, 8e6)
			start := e.clock.Now()
			if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
				t.Fatal(err)
			}
			d = e.clock.Now() - start
		})
		return d
	}
	plain := migrate(Config{})
	agg := migrate(Config{AggregateThreshold: 100e6, AggregateTarget: 2e9})
	if agg*3 > plain {
		t.Errorf("aggregation (%v) should be at least ~3x faster than per-file (%v)", agg, plain)
	}
}

func TestEngineCountersAccumulate(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 2, 1e9)
		e.eng.Migrate(files, MigrateOptions{})
		e.eng.Recall([]string{files[0].Path}, RecallOrdered)
		migFiles, migBytes := e.count("hsm_migrated_files_total"), e.count("hsm_migrated_bytes_total")
		if migFiles != 2 || migBytes != 2e9 {
			t.Errorf("migrated = %d/%d", migFiles, migBytes)
		}
		recFiles, recBytes := e.count("hsm_recalled_files_total"), e.count("hsm_recalled_bytes_total")
		if recFiles != 1 || recBytes != 1e9 {
			t.Errorf("recalled = %d/%d", recFiles, recBytes)
		}
	})
}

// TestReadThroughRecallsTransparently drives the DMAPI read-event path
// as jail.Read composes it: a read of a stub is offline until a
// one-path Recall brings the bytes back.
func TestReadThroughRecallsTransparently(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 1, 3e6)
		e.eng.Migrate(files, MigrateOptions{})
		p := files[0].Path
		if _, st, _ := e.fs.Lookup(p); st != pfs.Migrated {
			t.Fatal("setup: file not migrated")
		}
		if _, err := e.fs.ReadContent(p); !errors.Is(err, pfs.ErrOffline) {
			t.Fatalf("stub read err = %v, want ErrOffline", err)
		}
		if _, err := e.eng.Recall([]string{p}, RecallOrdered); err != nil {
			t.Fatal(err)
		}
		content, err := e.fs.ReadContent(p)
		if err != nil {
			t.Fatal(err)
		}
		if !content.Equal(synthetic.NewUniform(1, 3e6)) {
			t.Error("read-through content mismatch")
		}
		if _, st, _ := e.fs.Lookup(p); st == pfs.Migrated {
			t.Error("file still migrated after read-through")
		}
		// Recalling a resident file is a no-op.
		if _, err := e.eng.Recall([]string{p}, RecallOrdered); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMigrateStreamsPerNode(t *testing.T) {
	// More streams per node finish a many-file migration faster — when
	// the drive fleet can absorb them (40 drives here; oversubscribing
	// drives instead causes volume-swap churn).
	elapsed := func(streams int) time.Duration {
		e := newEnv(t, 40, Config{})
		var d time.Duration
		e.run(t, func() {
			files := e.mkFiles(t, "/d", 40, 10e9)
			start := e.clock.Now()
			if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true, StreamsPerNode: streams}); err != nil {
				t.Fatal(err)
			}
			d = e.clock.Now() - start
		})
		return d
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= one {
		t.Errorf("4 streams/node (%v) not faster than 1 (%v)", four, one)
	}
}

func TestLocateFallsBackToTSMScan(t *testing.T) {
	// Without a shadow DB the engine still finds files, via TSM's
	// expensive path scan.
	clock := simtime.NewClock()
	fsCfg := pfs.GPFSConfig("gpfs")
	fsCfg.MetaOpCost = 0
	fs := pfs.New(clock, fsCfg)
	lib := tape.NewLibrary(clock, 2, 16, 1, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	cl := cluster.New(clock, cluster.RoadrunnerConfig())
	eng := New(clock, fs, srv, nil, cl.Nodes(), Config{})
	clock.Go(func() {
		fs.WriteFile("/f", synthetic.NewUniform(1, 1e9))
		info, _ := fs.Stat("/f")
		if _, err := eng.Migrate([]pfs.Info{info}, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Recall([]string{"/f"}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 1 {
			t.Errorf("res = %+v", res)
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// A file migrated twice is found at its newer object, whichever older
// object moves: a rewrite of the first object to a fresh volume must
// not point the file ID, or the recall planned from it, back at the
// old data.
func TestRemigratedFileFoundAtNewestObject(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/e", 1, 2e9)
		path, id := files[0].Path, files[0].ID
		if _, err := e.eng.Migrate(files, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.eng.Recall([]string{path}, RecallOrdered); err != nil {
			t.Fatal(err)
		}
		want := synthetic.NewUniform(99, 3e9)
		if err := e.fs.WriteFile(path, want); err != nil {
			t.Fatal(err)
		}
		again, err := e.fs.Stat(path)
		if err != nil || again.ID != id {
			t.Fatalf("overwrite: %+v, %v; want the same file ID %d", again, err, id)
		}
		if _, err := e.eng.Migrate([]pfs.Info{again}, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		rewriteFromSource(t, e.srv, e.lib, 1)
		if rec, err := e.shadow.ByFileID(uint64(id)); err != nil || rec.ObjectID != 2 {
			t.Errorf("ByFileID after the old object moved = %+v, %v; want object 2", rec, err)
		}
		res, err := e.eng.Recall([]string{path}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 1 || res.Bytes != 3e9 {
			t.Errorf("recall: %+v, want 1 file of 3 GB", res)
		}
		if got, err := e.fs.ReadContent(path); err != nil || !got.Equal(want) {
			t.Errorf("content after recall: err %v, equal %v", err, err == nil && got.Equal(want))
		}
	})
}
