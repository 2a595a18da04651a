package archive

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fabric"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// JobResult records one campaign job, the row unit of Figures 8–11.
// Files/Bytes/RateMBs are derived from the telemetry registry deltas
// around the job.
type JobResult struct {
	Spec    workload.JobSpec
	Files   int
	Bytes   int64
	Elapsed time.Duration
	RateMBs float64 // the paper's MB/s (1e6)
}

// CampaignResult aggregates a full §5.2 replay.
type CampaignResult struct {
	Jobs []JobResult
}

// RunCampaign replays the Open Science campaign: for each generated
// job it materializes the tree on scratch, launches background trunk
// traffic at the job's sharing level, archives the tree with pfcp,
// records the achieved rate, and tears the trees down (retention is
// outside the measured path). Must be called from a simulation actor.
func RunCampaign(s *System, cfg workload.CampaignConfig, tun pftool.Tunables, progress io.Writer) (CampaignResult, error) {
	return RunCampaignJobs(s, workload.Generate(cfg), cfg.Seed, tun, progress)
}

// RunCampaignJobs replays an explicit job sequence (e.g. a saved
// trace). Must be called from a simulation actor.
func RunCampaignJobs(s *System, jobs []workload.JobSpec, seed int64, tun pftool.Tunables, progress io.Writer) (CampaignResult, error) {
	res := CampaignResult{}
	for _, spec := range jobs {
		jr, err := RunJob(s, spec, seed, tun)
		if err != nil {
			return res, fmt.Errorf("job %d: %w", spec.ID, err)
		}
		res.Jobs = append(res.Jobs, jr)
		if progress != nil {
			fmt.Fprintf(progress, "job %2d  %-15s  %8d files  %9.1f GB  %8.1f MB/s  bg=%.2f\n",
				spec.ID, spec.Project, jr.Files, stats.GB(float64(jr.Bytes)), jr.RateMBs, spec.Background)
		}
	}
	return res, nil
}

// RunJob executes one campaign job end to end.
func RunJob(s *System, spec workload.JobSpec, seed int64, tun pftool.Tunables) (JobResult, error) {
	srcRoot := fmt.Sprintf("/campaign/job%04d", spec.ID)
	dstRoot := fmt.Sprintf("/archive/%s/job%04d", spec.Project, spec.ID)
	if _, err := workload.BuildTree(s.Scratch, srcRoot, spec, seed, 2048); err != nil {
		return JobResult{}, err
	}
	stop := false
	workload.Noise(s.Clock, s.Cluster.Trunk(), spec.Background, &stop)
	// Headline numbers come from the telemetry registry: delta the
	// pfcp counters around the run (pftool.TestRunCountersMatchResult
	// holds them equal to the result struct).
	tel := telemetry.Of(s.Clock)
	ctrBytes := tel.Counter("pftool_bytes_copied_total", "op", "pfcp")
	ctrFiles := tel.Counter("pftool_files_copied_total", "op", "pfcp")
	bytes0, files0 := ctrBytes.Value(), ctrFiles.Value()
	start := s.Clock.Now()
	_, err := s.Pfcp(srcRoot, dstRoot, tun)
	elapsed := s.Clock.Now() - start
	stop = true
	if err != nil {
		return JobResult{}, err
	}
	regBytes := int64(ctrBytes.Value() - bytes0)
	regFiles := int(ctrFiles.Value() - files0)
	// Retention of archived data is not part of the measured path;
	// tearing both trees down keeps memory bounded across 62 jobs: vfs
	// gives removed inodes' arena chunks back, so a plant holds its
	// largest job, not every job so far (TestCampaignMemoryIsBounded).
	if err := s.Scratch.RemoveAll(srcRoot); err != nil {
		return JobResult{}, err
	}
	if err := s.Archive.RemoveAll(dstRoot); err != nil {
		return JobResult{}, err
	}
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(regBytes) / secs / 1e6
	}
	return JobResult{
		Spec:    spec,
		Files:   regFiles,
		Bytes:   regBytes,
		Elapsed: elapsed,
		RateMBs: rate,
	}, nil
}

// Figure8 summarizes files archived per job.
func (c CampaignResult) Figure8() *stats.Summary {
	var s stats.Summary
	for _, j := range c.Jobs {
		s.Add(float64(j.Files))
	}
	return &s
}

// Figure9 summarizes data archived per job (GB, the paper's unit).
func (c CampaignResult) Figure9() *stats.Summary {
	var s stats.Summary
	for _, j := range c.Jobs {
		s.Add(stats.GB(float64(j.Bytes)))
	}
	return &s
}

// Figure10 summarizes the per-job data rate (MB/s).
func (c CampaignResult) Figure10() *stats.Summary {
	var s stats.Summary
	for _, j := range c.Jobs {
		s.Add(j.RateMBs)
	}
	return &s
}

// Figure11 summarizes the average file size per job (MB).
func (c CampaignResult) Figure11() *stats.Summary {
	var s stats.Summary
	for _, j := range c.Jobs {
		if j.Files > 0 {
			s.Add(stats.MB(float64(j.Bytes) / float64(j.Files)))
		}
	}
	return &s
}

// SerialBaselineResult reports the §5.2 comparison point: the
// non-parallel archive that moves one file at a time through a single
// mover and a single tape drive (~70 MB/s in the paper).
type SerialBaselineResult struct {
	Bytes   int64
	Elapsed time.Duration
	RateMBs float64
}

// SerialArchiveBaseline archives the tree at src the way a conventional
// non-parallel archive does: a single data stream from scratch through
// one gigabit-class mover link onto one tape drive, one file per tape
// transaction, no parallelism anywhere. Must be called from an actor.
func SerialArchiveBaseline(s *System, src string) (SerialBaselineResult, error) {
	res := SerialBaselineResult{}
	// The serial archive's mover: one 1GigE-class link, wired into the
	// fabric between the scratch tier and a dedicated endpoint so the
	// stream couples with the scratch pool array.
	s.Fabric.AddLink("serial-mover", 118e6, fabric.Compute, "serial-archiver")
	moverPath, err := s.Fabric.Route(s.Scratch.DefaultPool().Endpoint(), "", "serial-archiver")
	if err != nil {
		return res, err
	}
	drive := s.Library.Drive(0)
	drive.Acquire()
	defer drive.Release()
	cart, err := s.Library.Scratch(1)
	if err != nil {
		return res, err
	}
	if err := s.Library.Mount(drive, cart); err != nil {
		return res, err
	}
	start := s.Clock.Now()
	var sizes []int64
	if err := s.Scratch.Walk(src, func(i pfs.Info) error {
		if !i.IsDir() {
			sizes = append(sizes, i.Size)
		}
		return nil
	}); err != nil {
		return res, err
	}
	for n, size := range sizes {
		if cart.Remaining() < size {
			cart, err = s.Library.Scratch(size)
			if err != nil {
				return res, err
			}
			if err := s.Library.Mount(drive, cart); err != nil {
				return res, err
			}
		}
		wg := simtime.NewWaitGroup(s.Clock)
		wg.Add(1)
		s.Clock.Go(func() {
			defer wg.Done()
			s.Fabric.Transfer(moverPath, size)
		})
		if _, err := drive.Append(uint64(1_000_000+n), size); err != nil {
			return res, err
		}
		wg.Wait()
		res.Bytes += size
	}
	res.Elapsed = s.Clock.Now() - start
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.RateMBs = float64(res.Bytes) / secs / 1e6
	}
	return res, nil
}
