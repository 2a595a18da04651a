package experiments

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/pftool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CampaignParams scales the Open Science replay (E1–E4).
type CampaignParams struct {
	Seed int64
	Jobs int // 0 = the paper's 62
	// MaxSimFiles caps per-job file counts (0 = the default 300k cap;
	// negative = uncapped, which needs several GB of memory).
	MaxSimFiles int
}

// config resolves the params to the campaign the generator runs.
func (p CampaignParams) config() workload.CampaignConfig {
	cfg := workload.PaperCampaign(p.Seed)
	if p.Jobs > 0 {
		cfg.Jobs = p.Jobs
	}
	switch {
	case p.MaxSimFiles > 0:
		cfg.MaxSimFiles = p.MaxSimFiles
	case p.MaxSimFiles < 0:
		cfg.MaxSimFiles = 0
	}
	return cfg
}

// campaign replays §5.2 and renders Figures 8–11.
func campaign(p CampaignParams) []Report {
	_, reports := CampaignData(p)
	return reports
}

// CampaignData replays §5.2 and returns the raw per-job results (for
// CSV export) alongside the rendered figure reports.
func CampaignData(p CampaignParams) (archive.CampaignResult, []Report) {
	var res archive.CampaignResult
	var err error
	run := runSystem(nil, func(sys *archive.System) {
		res, err = archive.RunCampaign(sys, p.config(), pftool.DefaultTunables(), nil)
	})
	if err != nil {
		panic(fmt.Sprintf("campaign failed: %v", err))
	}
	reports := []Report{
		figureReport("fig8", "Number of files archived per job (paper: 1 .. 2,920,088; avg 167,491)",
			res.Figure8(), "files", perJob(res, func(j archive.JobResult) float64 { return float64(j.Files) })),
		figureReport("fig9", "Data archived per job (paper: 4 .. 32,593 GB; avg 2,442 GB)",
			res.Figure9(), "GB", perJob(res, func(j archive.JobResult) float64 { return stats.GB(float64(j.Bytes)) })),
		figureReport("fig10", "Data rate per job (paper: 73 .. 1,868 MB/s; avg ~575 MB/s)",
			res.Figure10(), "MB/s", perJob(res, func(j archive.JobResult) float64 { return j.RateMBs })),
		figureReport("fig11", "Average file size per job (paper: 0.004 .. 4,220 MB; avg 596 MB)",
			res.Figure11(), "MB", perJob(res, func(j archive.JobResult) float64 {
				if j.Files == 0 {
					return 0
				}
				return stats.MB(float64(j.Bytes) / float64(j.Files))
			})),
	}
	// fig10 is the campaign's rate figure; carry the registry snapshot
	// and flight dump on it so -metrics-text/-flight-record see the run.
	reports[2].Telemetry = run.snap
	reports[2].Flight = run.flight
	return res, reports
}

func perJob(res archive.CampaignResult, f func(archive.JobResult) float64) *stats.LogHistogram {
	h := stats.NewLogHistogram()
	for _, j := range res.Jobs {
		h.Add(f(j))
	}
	return h
}

func figureReport(name, title string, s *stats.Summary, unit string, h *stats.LogHistogram) Report {
	t := stats.NewTable("stat", "value", "unit")
	t.Row("jobs", s.N(), "")
	summaryRows(t, s, unit)
	r := Report{
		Name:  name,
		Title: title,
		Body:  t.String() + "\nlog10 distribution:\n" + h.Render(unit),
	}
	r.metric("min", s.Min())
	r.metric("mean", s.Mean())
	r.metric("max", s.Max())
	if name == "fig8" {
		r.Notes = append(r.Notes,
			"per-job file counts are capped at 300k for memory (paper max 2.92M); pass -full to lift the cap",
		)
	}
	return r
}

// parallelVsSerial is E5: the paper's ~575 MB/s parallel archive rate
// against the ~70 MB/s non-parallel archive it replaces.
func parallelVsSerial(seed int64) Report {
	var serial archive.SerialBaselineResult
	var parallel pftool.Result
	runSystem(nil, func(sys *archive.System) {
		spec := workload.JobSpec{
			ID: 1, Project: "materials",
			NumFiles: 400, TotalBytes: 200e9, AvgFileSize: 500e6,
		}
		if _, err := workload.BuildTree(sys.Scratch, "/proj", spec, seed, 512); err != nil {
			panic(err)
		}
		var err error
		serial, err = archive.SerialArchiveBaseline(sys, "/proj")
		if err != nil {
			panic(err)
		}
		parallel, err = sys.Pfcp("/proj", "/arc/proj", pftool.DefaultTunables())
		if err != nil {
			panic(err)
		}
	})
	t := stats.NewTable("system", "MB/s", "elapsed")
	t.Row("non-parallel archive (1 mover, 1 drive)", serial.RateMBs, serial.Elapsed.String())
	t.Row("COTS parallel archive (PFTool)", parallel.Rate()/1e6, parallel.Elapsed().String())
	r := Report{
		Name:  "parallel-vs-serial",
		Title: "Parallel vs non-parallel archive data rate (§5.2: ~575 vs ~70 MB/s)",
		Body:  t.String(),
	}
	r.metric("serial_mbs", serial.RateMBs)
	r.metric("parallel_mbs", parallel.Rate()/1e6)
	r.metric("speedup", parallel.Rate()/1e6/serial.RateMBs)
	return r
}
