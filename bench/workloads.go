package main

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/experiments"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Input sizes at scale 1. They are constants of the benchmark: a
// change to one makes every committed number incomparable.
const (
	campaignSeed    = 2010    // job mix of campaign-mixed and islands
	campaignJobs    = 4       // the E19 slice: first four jobs clear 1M files
	campaignFileCap = 300_000 // workload.PaperCampaign's per-job cap

	smallJobs     = 2
	smallFiles    = 500_000
	smallMeanSize = 64e3

	bigJobs     = 9
	bigFiles    = 4_000
	bigMeanSize = 20e9

	tapeFiles    = 150_000
	tapeFileSize = 8e6  // the §6.1 incident's 8 MB files
	treeFanout   = 2048 // files per directory, as RunJob passes BuildTree

	islandCount   = 4
	islandWorkers = 2 // fixed so the run fits nproc on a small shared box
	islandJobs    = 8

	// recallStallTimeout replaces pftool's default 15 min: at the
	// default the WatchDog kills the tape-recall retrieve while its
	// TapeProcs are still waiting on mounts (see README, known quirks).
	recallStallTimeout = 48 * time.Hour

	paperTrunkMBs     = 1868.0 // §5.2: best job, the 75 %-of-trunk ceiling
	paperSmallTapeMBs = 4.0    // §6.1: 8 MB files on an LTO-4 drive
)

// workloadSpec is one named input of the benchmark; BENCHMARK.json and
// the README say why each was chosen. setup and timed run
// inside the driving actor of a fresh archive.NewDefault plant; verify
// runs after the timed call on the traced run only. islands drives its
// own clocks and sets run instead.
type workloadSpec struct {
	name   string
	files  func(scale int) int // operations attempted
	setup  func(e *env) error
	timed  func(e *env) error
	verify func(e *env) error
	run    func(p params) (*runResult, error)
}

var workloads = []*workloadSpec{
	{
		name:  "campaign-mixed",
		files: func(scale int) int { return sumFiles(campaignSpecs(scale)) },
		timed: func(e *env) error { return e.pfcpJobs(campaignSpecs(e.p.Scale)) },
	},
	{
		name:   "pfcp-smallfiles",
		files:  func(scale int) int { return sumFiles(smallSpecs(scale)) },
		timed:  func(e *env) error { return e.pfcpJobs(smallSpecs(e.p.Scale)) },
		verify: verifySmallfiles,
	},
	{
		name:  "pfcp-bigfiles",
		files: func(scale int) int { return sumFiles(bigSpecs(scale)) },
		timed: bigfilesTimed,
	},
	{
		name:   "tape-migrate",
		files:  tapeFileCount,
		setup:  func(e *env) error { _, err := e.seedTapeFiles(); return err },
		timed:  tapeMigrateTimed,
		verify: verifyTapeMigrate,
	},
	{
		name:   "tape-recall",
		files:  tapeFileCount,
		setup:  tapeRecallSetup,
		timed:  tapeRecallTimed,
		verify: verifyTapeRecall,
	},
	{
		name:  "islands",
		files: func(scale int) int { return 0 }, // known only after the run: the generator caps per job
		run:   runIslands,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func sumFiles(specs []workload.JobSpec) int {
	n := 0
	for _, s := range specs {
		n += s.NumFiles
	}
	return n
}

func scaled(n, scale int) int { return max(n/scale, 1) }

func tapeFileCount(scale int) int { return scaled(tapeFiles, scale) }

func campaignSpecs(scale int) []workload.JobSpec {
	cfg := workload.PaperCampaign(campaignSeed)
	cfg.MaxSimFiles = scaled(campaignFileCap, scale)
	return workload.Generate(cfg)[:campaignJobs]
}

func uniformSpecs(jobs, files int, meanSize int64, background []float64) []workload.JobSpec {
	specs := make([]workload.JobSpec, jobs)
	for i := range specs {
		specs[i] = workload.JobSpec{
			ID: i + 1, Project: workload.Projects[i%len(workload.Projects)],
			NumFiles: files, TotalBytes: int64(files) * meanSize, AvgFileSize: meanSize,
			Background: background[i%len(background)],
		}
	}
	return specs
}

func smallSpecs(scale int) []workload.JobSpec {
	return uniformSpecs(smallJobs, scaled(smallFiles, scale), smallMeanSize, []float64{0})
}

func bigSpecs(scale int) []workload.JobSpec {
	return uniformSpecs(bigJobs, scaled(bigFiles, scale), bigMeanSize, []float64{0, 0.3, 0.6})
}

// pfcpJobs is the timed call of the three pfcp workloads. Untraced it
// is the opaque call archsim users make; traced it is the same job
// loop rebuilt from the exported functions RunJob is made of, with a
// span around each.
func (e *env) pfcpJobs(specs []workload.JobSpec) error {
	tun := pftool.DefaultTunables()
	if e.tr == nil {
		res, err := archive.RunCampaignJobs(e.sys, specs, e.p.Seed, tun, nil)
		for _, j := range res.Jobs {
			e.addJob(j.Spec.Background, j.Files, j.Bytes, j.Elapsed)
		}
		return err
	}
	for _, spec := range specs {
		e.tr.newTrace()
		if err := e.tracedJob(spec, tun); err != nil {
			return fmt.Errorf("job %d: %w", spec.ID, err)
		}
	}
	return nil
}

// bigfilesTimed adds the paper reference: §5.2's 1,868 MB/s is the best
// job on an idle trunk, and the mean rate of the background-0 jobs is
// its counterpart here.
func bigfilesTimed(e *env) error {
	if err := e.pfcpJobs(bigSpecs(e.p.Scale)); err != nil {
		return err
	}
	var rate, n float64
	for _, j := range e.jobs {
		if j.Background == 0 && j.ElapsedNs > 0 {
			rate += float64(j.Bytes) / 1e6 / time.Duration(j.ElapsedNs).Seconds()
			n++
		}
	}
	if n > 0 {
		e.paperErr(rate/n, paperTrunkMBs)
	}
	return nil
}

// tracedJob mirrors archive.RunJob call for call.
func (e *env) tracedJob(spec workload.JobSpec, tun pftool.Tunables) error {
	s := e.sys
	srcRoot := fmt.Sprintf("/campaign/job%04d", spec.ID)
	dstRoot := fmt.Sprintf("/archive/%s/job%04d", spec.Project, spec.ID)
	return e.tr.in("archive", "job", func() error {
		if err := e.tr.in("workload", "workload.BuildTree", func() error {
			_, err := workload.BuildTree(s.Scratch, srcRoot, spec, e.p.Seed, treeFanout)
			return err
		}); err != nil {
			return err
		}
		stop := false
		_ = e.tr.in("workload", "workload.Noise", func() error {
			workload.Noise(s.Clock, s.Cluster.Trunk(), spec.Background, &stop)
			return nil
		})
		tel := telemetry.Of(s.Clock)
		ctrBytes := tel.Counter("pftool_bytes_copied_total", "op", "pfcp")
		ctrFiles := tel.Counter("pftool_files_copied_total", "op", "pfcp")
		bytes0, files0 := ctrBytes.Value(), ctrFiles.Value()
		start := s.Clock.Now()
		var pres pftool.Result
		err := e.tr.in("pftool", "System.Pfcp", func() error {
			var err error
			pres, err = s.Pfcp(srcRoot, dstRoot, tun)
			return err
		})
		elapsed := s.Clock.Now() - start
		stop = true
		if err != nil {
			return err
		}
		e.pftoolResult(pres)
		e.notePeakInodes()
		e.addJob(spec.Background, int(ctrFiles.Value()-files0), int64(ctrBytes.Value()-bytes0), elapsed)
		if err := e.tr.in("pfs", "Scratch.RemoveAll", func() error { return s.Scratch.RemoveAll(srcRoot) }); err != nil {
			return err
		}
		return e.tr.in("pfs", "Archive.RemoveAll", func() error { return s.Archive.RemoveAll(dstRoot) })
	})
}

// verifySmallfiles copies the last job's tree once more, keeps both
// sides, and byte-compares them with pfcm: every file must match.
func verifySmallfiles(e *env) error {
	specs := smallSpecs(e.p.Scale)
	spec := specs[len(specs)-1]
	if _, err := workload.BuildTree(e.sys.Scratch, "/verify/src", spec, e.p.Seed, treeFanout); err != nil {
		return err
	}
	tun := pftool.DefaultTunables()
	if _, err := e.sys.Pfcp("/verify/src", "/verify/dst", tun); err != nil {
		return err
	}
	r, err := e.sys.Pfcm("/verify/src", "/verify/dst", tun)
	if err != nil {
		return err
	}
	if r.Matched != spec.NumFiles || r.Mismatched != 0 || r.Missing != 0 {
		return fmt.Errorf("pfcm: %d matched, %d mismatched, %d missing of %d files", r.Matched, r.Mismatched, r.Missing, spec.NumFiles)
	}
	return nil
}

// treePath names file i of a tree laid out as workload.BuildTree lays
// its trees out: directories of treeFanout files.
func treePath(root string, i int) string {
	return fmt.Sprintf("%s/d%04d/f%06d", root, i/treeFanout, i)
}

// treePaths names the directories and the n files of such a tree.
func treePaths(root string, n int) (dirs, files []string) {
	files = make([]string, n)
	for i := range files {
		if i%treeFanout == 0 {
			dirs = append(dirs, fmt.Sprintf("%s/d%04d", root, i/treeFanout))
		}
		files[i] = treePath(root, i)
	}
	return dirs, files
}

func tapeContent(seed int64, i int) synthetic.Content {
	return synthetic.NewUniform(uint64(seed)<<32^uint64(i+1), tapeFileSize)
}

// seedTapeFiles creates the resident 8 MB files under /mig on the
// archive file system and returns their infos, the migrator's input.
func (e *env) seedTapeFiles() ([]pfs.Info, error) {
	n := tapeFileCount(e.p.Scale)
	fs := e.sys.Archive
	dirs, files := treePaths("/mig", n)
	specs := make([]pfs.FileSpec, n)
	for i, path := range files {
		specs[i] = pfs.FileSpec{Path: path, Content: tapeContent(e.p.Seed, i)}
	}
	e.infos = make([]pfs.Info, n)
	err := e.tr.in("pfs", "pfs.WriteFiles", func() error {
		for _, d := range dirs {
			if err := fs.MkdirAll(d); err != nil {
				return err
			}
		}
		return fs.WriteFiles(specs)
	})
	if err != nil {
		return nil, err
	}
	err = e.tr.in("pfs", "pfs.Stat", func() error {
		for i := range specs {
			info, err := fs.Stat(specs[i].Path)
			if err != nil {
				return err
			}
			e.infos[i] = info
		}
		return nil
	})
	return e.infos, err
}

// migrate runs the parallel data migrator over the seeded files and
// returns how many it put on tape.
func (e *env) migrate() (done int, err error) {
	var res hsm.MigrateResult
	err = e.tr.in("hsm", "HSM.Migrate", func() error {
		var err error
		res, err = e.sys.HSM.Migrate(e.infos, hsm.MigrateOptions{Balanced: true})
		return err
	})
	e.reported += res.Rejected + len(res.FirstErrors)
	return res.Files, err
}

func tapeMigrateTimed(e *env) error {
	start := e.clock.Now()
	done, err := e.migrate()
	if err != nil {
		return err
	}
	bytes := int64(len(e.infos)) * tapeFileSize
	e.addJob(0, done, bytes, e.clock.Now()-start)
	// §6.1's figure is the per-drive effective rate: bytes over the
	// drives' transaction time, as E6 computes it.
	if xfer := e.sys.Library.TotalStats().TransferTime; xfer > 0 {
		e.paperErr(float64(bytes)/xfer.Seconds()/1e6, paperSmallTapeMBs)
	}
	return nil
}

func verifyTapeMigrate(e *env) error {
	var audit archive.AuditResult
	err := e.tr.in("archive", "System.Audit", func() error {
		var err error
		audit, err = e.sys.Audit()
		return err
	})
	if err != nil {
		return err
	}
	if !audit.Clean() {
		return fmt.Errorf("%s", audit)
	}
	if objs, rows, want := e.sys.TSM.NumObjects(), e.sys.Shadow.Len(), len(e.infos); objs != want || rows != want {
		return fmt.Errorf("tsm objects %d, shadow rows %d, want %d each", objs, rows, want)
	}
	return nil
}

func tapeRecallSetup(e *env) error {
	if _, err := e.seedTapeFiles(); err != nil {
		return err
	}
	done, err := e.migrate()
	if left := len(e.infos) - done; err == nil && (left > 0 || e.reported > 0) {
		err = fmt.Errorf("setup migrate left %d files behind and reported %d failures", left, e.reported)
	}
	return err
}

func tapeRecallTimed(e *env) error {
	tun := pftool.DefaultTunables()
	tun.TapeOrdered = true
	tun.StallTimeout = recallStallTimeout
	start := e.clock.Now()
	var r pftool.Result
	err := e.tr.in("pftool", "System.PfcpRetrieve", func() error {
		var err error
		r, err = e.sys.PfcpRetrieve("/mig", "/recall", tun)
		return err
	})
	if err != nil {
		return err
	}
	e.pftoolResult(r)
	// A file is retrieved once it is both restored from tape and copied.
	e.addJob(0, min(r.FilesCopied, r.Restored), r.BytesCopied, e.clock.Now()-start)
	return nil
}

// verifyTapeRecall checks the retrieved bytes and compares a sample of
// the files on scratch with what was written before migration.
func verifyTapeRecall(e *env) error {
	n := len(e.infos)
	if got, want := e.sys.Scratch.TotalBytes(), int64(n)*tapeFileSize; got != want {
		return fmt.Errorf("scratch holds %d bytes after recall, want %d", got, want)
	}
	for i := 0; i < n; i += max(n/256, 1) {
		got, err := e.sys.Scratch.ReadContent(treePath("/recall", i))
		if err != nil {
			return err
		}
		if !got.Equal(tapeContent(e.p.Seed, i)) {
			return fmt.Errorf("%s differs from what was archived", treePath("/recall", i))
		}
	}
	return nil
}

// islandFileCap is the per-job file cap of the islands run. The job
// mix stays workload.PaperCampaign(2010)'s so that host time is
// comparable between seeds; the seed shaves up to 0.3 % off the cap,
// which changes every capped job's tree.
func islandFileCap(seed int64, scale int) int {
	return scaled(campaignFileCap-int(uint64(seed)%1000), scale)
}

// runIslands is E24's measured half: one span around ParallelRun. The
// verify pass runs it again with the 1-worker baseline, whose
// byte-identity panic inside ParallelRun is the output check.
func runIslands(p params) (*runResult, error) {
	res := newResult(p)
	tr := traceIf(p.Traced)
	pp := experiments.ParallelParams{
		Seed: campaignSeed, Islands: islandCount, Workers: islandWorkers, Jobs: islandJobs,
		MaxSimFiles: islandFileCap(p.Seed, p.Scale), NoBaseline: true,
	}
	var rep experiments.Report
	var pr *experiments.ParallelReport
	_ = res.timeCall(p.started, func() error {
		return tr.in("experiments", "experiments.ParallelRun", func() error {
			rep, pr = experiments.ParallelRun(pp)
			return nil
		})
	})

	res.Attempted, res.Files, res.Bytes = pr.Files, pr.Files, pr.Bytes
	var rows []jobRow
	var busy, busyMax float64
	for _, is := range pr.PerIsland {
		rows = append(rows, jobRow{Files: is.Files, Bytes: int64(is.GB * 1e9), ElapsedNs: int64(is.VirtualSeconds * 1e9)})
		res.VirtS += is.VirtualSeconds
		busy += is.WallSeconds
		busyMax = max(busyMax, is.WallSeconds)
	}
	res.Failed = pr.Files - int(rep.Telemetry.Total("pftool_files_copied_total"))
	if res.VirtS > 0 {
		res.VirtMBs = float64(pr.Bytes) / 1e6 / res.VirtS
	}
	res.SimDigest = digest(rep.Telemetry.Text(), rows)

	c := res.Counts
	c["simtime.events"] = float64(pr.Events)
	snapshotCounts(c, rep.Telemetry, &telemetry.Snapshot{}, res.VirtS, res.Files)
	c["simtime.island_events"] = float64(pr.Events)
	c["simtime.island_null_messages"] = float64(pr.NullMessages)
	c["simtime.island_fast_forwards"] = float64(pr.FastForwards)
	c["simtime.island_busy_s"] = busy
	if pr.WallSeconds > 0 && busy > 0 {
		c["simtime.island_efficiency"] = busy / (float64(pr.Workers) * pr.WallSeconds)
		c["simtime.island_imbalance"] = busyMax / (busy / float64(len(pr.PerIsland)))
	}
	c["federation.manifests"] = float64(pr.ReplicaManifests)
	c["federation.lag_mean_s"] = pr.LagMeanSeconds
	c["goruntime.heap_live_mb"] = heapLiveMB()
	if p.Traced {
		pp.NoBaseline = false
		speedup, err := verifyIslands(pp)
		if err != nil {
			res.VerifyError = err.Error()
		}
		c["simtime.island_speedup"] = speedup
	}
	res.finish(tr)
	return res, nil
}

// verifyIslands reports ParallelRun's determinism panic as an error.
func verifyIslands(pp experiments.ParallelParams) (speedup float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	_, pr := experiments.ParallelRun(pp)
	if !pr.Deterministic {
		return pr.Speedup, fmt.Errorf("ParallelRun did not compare the 1-worker and %d-worker outputs", pr.Workers)
	}
	return pr.Speedup, nil
}
