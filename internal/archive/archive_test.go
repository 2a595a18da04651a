package archive

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hsm"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func testTunables() pftool.Tunables {
	t := pftool.DefaultTunables()
	t.NumWorkers = 8
	t.NumReadDirs = 2
	t.NumTapeProcs = 2
	return t
}

func runSys(t *testing.T, fn func(s *System)) {
	t.Helper()
	runSysOpts(t, DefaultOptions(), fn)
}

// runSysOpts is runSys on a plant built from opts.
func runSysOpts(t *testing.T, opts Options, fn func(s *System)) {
	t.Helper()
	clock := simtime.NewClock()
	s := New(clock, opts)
	clock.Go(func() { fn(s) })
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// reclaimAfterPurge migrates 40 files of 2 GB through 4 drives, purges
// the first 30 through the trashcan, and reclaims every volume at most
// 60 % live, moving survivors to fresh volumes. It returns the
// survivors' paths and their pre-reclaim shadow rows, and fails unless
// some survivor moved.
func reclaimAfterPurge(t *testing.T, s *System) ([]string, []metadb.Record) {
	t.Helper()
	if err := s.Archive.MkdirAll("/arc/proj"); err != nil {
		t.Fatal(err)
	}
	specs := make([]pfs.FileSpec, 40)
	for i := range specs {
		specs[i] = pfs.FileSpec{
			Path:    fmt.Sprintf("/arc/proj/f%04d", i),
			Content: synthetic.NewUniform(uint64(i+1), 2e9),
		}
	}
	if err := s.Archive.WriteFiles(specs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{Balanced: true}); err != nil {
		t.Fatal(err)
	}
	can, err := s.TrashCan()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs[:30] {
		if _, err := can.Delete("alice", sp.Path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Deleter.Purge(can); err != nil {
		t.Fatal(err)
	}
	var survivors []string
	for _, sp := range specs[30:] {
		survivors = append(survivors, sp.Path)
	}
	before := s.Shadow.ByPaths(survivors)
	res, err := s.TSM.ReclaimThreshold("fta01", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectsMoved == 0 {
		t.Fatalf("reclaim moved no survivor: %+v", res)
	}
	return survivors, before
}

// Reclamation moves survivors through the same feed as every other
// catalog change: each survivor's shadow row names its object's new
// location, so a tape-ordered recall planned from the shadow succeeds.
func TestReclaimKeepsShadowForOrderedRecall(t *testing.T) {
	opts := DefaultOptions()
	opts.TapeDrives = 4
	runSysOpts(t, opts, func(s *System) {
		survivors, _ := reclaimAfterPurge(t, s)
		for _, rec := range s.Shadow.ByPaths(survivors) {
			obj, err := s.TSM.Get(rec.ObjectID)
			if err != nil || obj.Deleted || obj.Volume != rec.Volume || obj.Seq != rec.Seq {
				t.Errorf("shadow row %+v, TSM object %+v (%v)", rec, obj, err)
			}
		}
		if n, live := s.Shadow.Len(), s.TSM.NumObjects(); n != live {
			t.Errorf("shadow rows %d, live TSM objects %d", n, live)
		}
		res, err := s.HSM.Recall(survivors, hsm.RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != len(survivors) {
			t.Errorf("recalled %d files, want %d", res.Files, len(survivors))
		}
	})
}

func seedScratch(t *testing.T, s *System, root string, n int, size int64) {
	t.Helper()
	if err := s.Scratch.MkdirAll(root); err != nil {
		t.Fatal(err)
	}
	specs := make([]pfs.FileSpec, n)
	for i := range specs {
		specs[i] = pfs.FileSpec{
			Path:    fmt.Sprintf("%s/f%04d", root, i),
			Content: synthetic.NewUniform(uint64(i+1), size),
		}
	}
	if err := s.Scratch.WriteFiles(specs); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndArchiveVerifyMigrateRetrieve(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 12, 1e9)
		// Archive.
		cres, err := s.Pfcp("/proj", "/arc/proj", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if cres.FilesCopied != 12 {
			t.Fatalf("FilesCopied = %d", cres.FilesCopied)
		}
		// Verify.
		vres, err := s.Pfcm("/proj", "/arc/proj", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if vres.Matched != 12 || vres.Mismatched != 0 {
			t.Fatalf("verify = %+v", vres)
		}
		// Migrate to tape.
		mres, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if mres.Files != 12 {
			t.Fatalf("migrated = %+v", mres)
		}
		// Scratch is purged (it is scratch).
		if err := s.Scratch.RemoveAll("/proj"); err != nil {
			t.Fatal(err)
		}
		// Retrieve from tape back to scratch.
		rres, err := s.PfcpRetrieve("/arc/proj", "/proj2", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if rres.Restored != 12 || rres.FilesCopied != 12 {
			t.Fatalf("retrieve = %+v", rres)
		}
		got, err := s.Scratch.ReadContent("/proj2/f0003")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(synthetic.NewUniform(4, 1e9)) {
			t.Error("retrieved content mismatch")
		}
	})
}

func TestPflsBothSides(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 5, 1e6)
		res, err := s.Pfls("scratch", "/proj", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesListed != 5 {
			t.Errorf("scratch FilesListed = %d", res.FilesListed)
		}
		s.Archive.MkdirAll("/a")
		s.Archive.WriteFile("/a/x", synthetic.NewUniform(1, 10))
		res, err = s.Pfls("archive", "/a", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesListed != 1 {
			t.Errorf("archive FilesListed = %d", res.FilesListed)
		}
	})
}

func TestTrashCanLazyInit(t *testing.T) {
	runSys(t, func(s *System) {
		can, err := s.TrashCan()
		if err != nil {
			t.Fatal(err)
		}
		can2, err := s.TrashCan()
		if err != nil || can2 != can {
			t.Error("TrashCan should be cached")
		}
	})
}

func TestRunJobProducesRate(t *testing.T) {
	runSys(t, func(s *System) {
		spec := workload.JobSpec{
			ID: 1, Project: "materials",
			NumFiles: 64, TotalBytes: 64e9, AvgFileSize: 1e9,
			Background: 0.2,
		}
		jr, err := RunJob(s, spec, 42, testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if jr.Files != 64 || jr.Bytes != 64e9 {
			t.Errorf("jr = %+v", jr)
		}
		if jr.RateMBs < 50 || jr.RateMBs > 1880 {
			t.Errorf("rate = %.1f MB/s, outside physical range", jr.RateMBs)
		}
		// Trees are torn down.
		if s.Scratch.Exists("/campaign/job0001") {
			t.Error("scratch tree not cleaned")
		}
		if s.Archive.Exists("/archive/materials/job0001") {
			t.Error("archive tree not cleaned")
		}
	})
}

func TestMiniCampaignStatsShape(t *testing.T) {
	runSys(t, func(s *System) {
		cfg := workload.CampaignConfig{
			Jobs: 8, Seed: 3,
			MinJobBytes: 4e9, MaxJobBytes: 200e9,
			MinFileSize: 1e6, MaxFileSize: 4e9,
			MaxSimFiles: 3000,
		}
		res, err := RunCampaign(s, cfg, testTunables(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 8 {
			t.Fatalf("jobs = %d", len(res.Jobs))
		}
		f10 := res.Figure10()
		if f10.Min() <= 0 {
			t.Error("zero rate recorded")
		}
		if f10.Max() > 1880 {
			t.Errorf("rate %v exceeds trunk capacity", f10.Max())
		}
		if res.Figure8().N() != 8 || res.Figure9().N() != 8 || res.Figure11().N() != 8 {
			t.Error("figure summaries incomplete")
		}
	})
}

// TestCampaignLeavesNoResourceLeaks: after a mini campaign tears its
// trees down, the scratch and archive pools must be back to zero and
// no tape drive may still be held.
func TestCampaignLeavesNoResourceLeaks(t *testing.T) {
	runSys(t, func(s *System) {
		cfg := workload.CampaignConfig{
			Jobs: 5, Seed: 9,
			MinJobBytes: 4e9, MaxJobBytes: 100e9,
			MinFileSize: 1e6, MaxFileSize: 2e9,
			MaxSimFiles: 2000,
		}
		if _, err := RunCampaign(s, cfg, testTunables(), nil); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		for _, side := range []struct {
			fs    *pfs.FS
			pools []pfs.PoolSpec
		}{{s.Scratch, opts.Scratch.Pools}, {s.Archive, opts.Archive.Pools}} {
			for _, spec := range side.pools {
				if pool, _ := side.fs.Pool(spec.Name); pool.Used() != 0 {
					t.Errorf("pool %s leaked %d bytes", pool.Endpoint(), pool.Used())
				}
			}
		}
		if s.Scratch.NumInodes() != 2 { // / and /campaign
			t.Errorf("scratch inodes = %d", s.Scratch.NumInodes())
		}
	})
}

func TestRunCampaignJobsFromTrace(t *testing.T) {
	runSys(t, func(s *System) {
		jobs := []workload.JobSpec{
			{ID: 1, Project: "alpha", NumFiles: 10, TotalBytes: 10e9, AvgFileSize: 1e9},
			{ID: 2, Project: "beta", NumFiles: 5, TotalBytes: 5e9, AvgFileSize: 1e9, Background: 0.3},
		}
		res, err := RunCampaignJobs(s, jobs, 3, testTunables(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 2 || res.Jobs[0].Files != 10 || res.Jobs[1].Files != 5 {
			t.Errorf("res = %+v", res.Jobs)
		}
	})
}

func TestSerialBaselineMuchSlowerThanParallel(t *testing.T) {
	var serialRate, parallelRate float64
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 40, 500e6) // the paper's mid-size regime
		sres, err := SerialArchiveBaseline(s, "/proj")
		if err != nil {
			t.Fatal(err)
		}
		serialRate = sres.RateMBs
		pres, err := s.Pfcp("/proj", "/arc/proj", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		parallelRate = pres.Rate() / 1e6
	})
	// The paper: ~575 MB/s parallel vs ~70 MB/s non-parallel.
	if serialRate < 40 || serialRate > 110 {
		t.Errorf("serial rate = %.1f MB/s, want ~70", serialRate)
	}
	if parallelRate < 3*serialRate {
		t.Errorf("parallel (%.1f) should be >3x serial (%.1f)", parallelRate, serialRate)
	}
}

// TestRetrieveAggregatedFilesThroughPftool covers the aggregate path
// end to end: small files bundled on tape, then retrieved through the
// TapeProc restore pipeline.
func TestRetrieveAggregatedFilesThroughPftool(t *testing.T) {
	clock := simtime.NewClock()
	opts := DefaultOptions()
	opts.HSM = hsm.Config{AggregateThreshold: 100e6, AggregateTarget: 1e9}
	s := New(clock, opts)
	clock.Go(func() {
		s.Archive.MkdirAll("/arc/small")
		var infos []pfs.Info
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/arc/small/f%03d", i)
			s.Archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), 8e6))
			info, _ := s.Archive.Stat(p)
			infos = append(infos, info)
		}
		mres, err := s.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.HSM.AggregateOf(infos[0].ID); !ok || mres.Files != len(infos) {
			t.Fatalf("setup: %+v; want every file migrated, in bundles", mres)
		}
		rres, err := s.PfcpRetrieve("/arc/small", "/back", testTunables())
		if err != nil {
			t.Fatal(err)
		}
		if rres.FilesCopied != 30 {
			t.Errorf("FilesCopied = %d, want 30", rres.FilesCopied)
		}
		got, err := s.Scratch.ReadContent("/back/f007")
		if err != nil || !got.Equal(synthetic.NewUniform(8, 8e6)) {
			t.Errorf("aggregated member content mismatch: %v", err)
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemComponentsWired(t *testing.T) {
	clock := simtime.NewClock()
	s := NewDefault(clock)
	if len(s.Cluster.Nodes()) != 10 {
		t.Errorf("nodes = %d", len(s.Cluster.Nodes()))
	}
	if len(s.Library.Drives()) != 24 {
		t.Errorf("drives = %d", len(s.Library.Drives()))
	}
	if got := s.Placement().Choose("/x", 100, 0); got != "slow" {
		t.Errorf("placement = %s", got)
	}
}

// TestSiteNamesPartsAndSeries builds two site-named plants on one
// clock: each names its machines, file systems and copy-pool volumes
// for its site, and its tape, TSM and HSM series carry site=<name>
// instead of colliding in the clock's registry.
func TestSiteNamesPartsAndSeries(t *testing.T) {
	clock := simtime.NewClock()
	opts := DefaultOptions()
	opts.TapeDrives, opts.CopyPoolCartridges = 2, 1
	sites := map[string]*System{}
	for _, name := range []string{"east", "west"} {
		opts.Site = name
		sites[name] = New(clock, opts)
	}
	s := sites["east"]
	if got := s.Cluster.Nodes()[0].Name; got != "east-fta01" {
		t.Errorf("first machine = %s, want east-fta01", got)
	}
	if a, sc := s.Archive.DefaultPool().Endpoint(), s.Scratch.DefaultPool().Endpoint(); !strings.HasPrefix(a, "gpfs-east:") || !strings.HasPrefix(sc, "panfs-east:") {
		t.Errorf("pool endpoints = %s, %s; want file systems gpfs-east, panfs-east", a, sc)
	}
	if got := s.TSM.CopyPoolVolumes(); len(got) != 1 || got[0] != "cp-east-000" {
		t.Errorf("copy pool = %v, want [cp-east-000]", got)
	}
	snap := telemetry.Of(clock).Snapshot()
	if got := len(snap.Family("tape_drive_mounts_total")); got != 4 {
		t.Errorf("%d tape_drive_mounts_total series, want 4 (2 sites x 2 drives)", got)
	}
	for _, name := range []string{"east", "west"} {
		for _, fam := range []string{"tsm_objects_live", "hsm_migrated_files_total", "tape_robot_exchanges_total"} {
			found := false
			for _, p := range snap.Family(fam) {
				found = found || p.Label("site") == name
			}
			if !found {
				t.Errorf("no %s series with site=%q", fam, name)
			}
		}
	}
}
