// Command archsim regenerates the paper's tables and figures on the
// simulated deployment. Each experiment is listed in DESIGN.md's
// per-experiment index.
//
// Usage:
//
//	archsim -exp all              # every experiment
//	archsim -exp fig10 -seed 7    # one figure
//	archsim -list                 # show experiment names
//
//	archsim -exp chaos -flight-record flight.json   # dump recent spans/events
//	archsim -exp fabric -metrics-text               # Prometheus-style metrics
//	archsim -serve :9090 -pace 60                   # live operator plane over the campaign
//	archsim -exp ops -ops-report ops.json           # E22 scripted operator drill
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/tsm"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	seed := flag.Int64("seed", 2010, "workload seed")
	jobs := flag.Int("jobs", 0, "override campaign job count (0 = the paper's 62)")
	full := flag.Bool("full", false, "lift the per-job file-count cap (needs several GB of memory)")
	csvDir := flag.String("csv", "", "write per-job campaign data as CSV into this directory")
	saveTrace := flag.String("save-trace", "", "write the generated campaign job sequence to this JSON file")
	benchJSON := flag.String("bench-json", "", "run the campaign + fabric experiments and write their virtual-throughput metrics as JSON to this file")
	flightPath := flag.String("flight-record", "", "write the run's flight-recorder dump (recent spans and events) as JSON to this file, including on invariant-violation crashes")
	scrubPath := flag.String("scrub-report", "", "write the run's tape-scrubber pass reports as JSON to this file (the integrity experiment produces them)")
	drPath := flag.String("dr-report", "", "write the disaster-recovery drill's replication summary as JSON to this file (the dr experiment produces it)")
	tenantPath := flag.String("tenant-report", "", "write the multi-tenant QoS study's summary as JSON to this file (the tenants experiment produces it)")
	stormPath := flag.String("storm-report", "", "write the overload-resilience study's summary as JSON to this file (the storm experiment produces it)")
	metricsText := flag.Bool("metrics-text", false, "print each experiment's telemetry registry in Prometheus text exposition format")
	serveAddr := flag.String("serve", "", "serve the live operator plane on this address (e.g. :9090) while running the campaign; /metrics, /events, /spans, /snapshot, /ops/...")
	pace := flag.Float64("pace", -1, "with -serve, throttle the clock to this many virtual seconds per real second (-1 = default 60; 0 = free-run)")
	opsReportPath := flag.String("ops-report", "", "write the operator drill's summary as JSON to this file (the ops experiment produces it)")
	opsScrapePath := flag.String("ops-scrape", "", "write the operator drill's final live /metrics scrape verbatim to this file")
	scaleJSON := flag.String("scale-json", "", "with -exp scale, write the wall-clock benchmark metrics as JSON to this file")
	wallCeiling := flag.Float64("wall-ceiling", 0, "with -exp scale or -exp parallel, exit nonzero if the measured run's wall clock exceeds this many seconds (CI regression tripwire)")
	islands := flag.Int("islands", 0, "with -exp parallel, concurrent-island worker cap (1 = single-threaded reference; 0 = one per core)")
	parallelPath := flag.String("parallel-report", "", "write the parallel-engine study's summary as JSON to this file (the parallel experiment produces it)")
	parallelBenchJSON := flag.String("parallel-bench-json", "", "sweep the engine over 1/2/4/8 islands and write files/s + events/s per island count as JSON to this file (honors -jobs)")
	checkpointPath := flag.String("checkpoint", "", "with -exp parallel, write the versioned mid-run snapshot to this file")
	checkpointEpoch := flag.Int("checkpoint-epoch", 0, "with -checkpoint, cut the snapshot at this epoch barrier (0 = the middle one)")
	restorePath := flag.String("restore", "", "with -exp parallel, resume from this checkpoint file instead of starting at virtual zero")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit (island imbalance shows up here)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "archsim: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	if *flightPath != "" {
		// Experiment invariants panic from simulation actors, and the
		// ring to dump belongs to a clock only the experiment holds —
		// so the crash dump is written synchronously in the sink.
		experiments.SetCrashFlightSink(func(d *telemetry.FlightDump) {
			if err := writeFlightDump(*flightPath, d); err != nil {
				fmt.Fprintln(os.Stderr, "archsim: flight:", err)
			}
		})
	}

	if *serveAddr != "" {
		p := *pace
		if p < 0 {
			p = 60
		}
		if err := serveLive(*serveAddr, p, *seed, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "archsim:", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *seed, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: bench:", err)
			os.Exit(1)
		}
		return
	}

	if *parallelBenchJSON != "" {
		if err := writeParallelBenchJSON(*parallelBenchJSON, *seed, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: parallel-bench:", err)
			os.Exit(1)
		}
		return
	}

	var reports []experiments.Report
	var err error
	switch *exp {
	case "campaign", "fig8", "fig9", "fig10", "fig11":
		p := experiments.CampaignParams{Seed: *seed, Jobs: *jobs}
		if *full {
			p.MaxSimFiles = -1
		}
		if *saveTrace != "" {
			if err := saveCampaignTrace(*saveTrace, p); err != nil {
				fmt.Fprintln(os.Stderr, "archsim: trace:", err)
				os.Exit(1)
			}
		}
		var data archive.CampaignResult
		data, reports = experiments.CampaignData(p)
		if *csvDir != "" {
			if err := writeCampaignCSV(*csvDir, data); err != nil {
				fmt.Fprintln(os.Stderr, "archsim: csv:", err)
				os.Exit(1)
			}
		}
	case "parallel":
		p := experiments.ParallelParams{
			Seed: *seed, Jobs: *jobs, Workers: *islands,
			CheckpointPath: *checkpointPath, CheckpointEpoch: *checkpointEpoch,
			RestorePath: *restorePath,
		}
		if *full {
			p.MaxSimFiles = -1
		}
		r, _ := experiments.ParallelRun(p)
		reports = []experiments.Report{r}
	default:
		reports, err = experiments.Run(*exp, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, experiments.ErrUnknownExperiment) {
				fmt.Fprintln(os.Stderr, "available experiments:")
				for _, n := range experiments.Names() {
					fmt.Fprintln(os.Stderr, "  "+n)
				}
			}
			os.Exit(2)
		}
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	if *metricsText {
		for _, r := range reports {
			if r.Telemetry != nil {
				fmt.Printf("# == %s ==\n%s", r.Name, r.Telemetry.Text())
			}
		}
	}
	if *flightPath != "" {
		if err := writeFlightFromReports(*flightPath, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: flight:", err)
			os.Exit(1)
		}
	}
	if *scrubPath != "" {
		if err := writeScrubReport(*scrubPath, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: scrub:", err)
			os.Exit(1)
		}
	}
	if *drPath != "" {
		if err := writeDRReport(*drPath, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: dr:", err)
			os.Exit(1)
		}
	}
	if *tenantPath != "" {
		if err := writeTenantReport(*tenantPath, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: tenants:", err)
			os.Exit(1)
		}
	}
	if *stormPath != "" {
		if err := writeStormReport(*stormPath, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: storm:", err)
			os.Exit(1)
		}
	}
	if *opsReportPath != "" {
		if err := writeOpsReport(*opsReportPath, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: ops:", err)
			os.Exit(1)
		}
	}
	if *opsScrapePath != "" {
		if err := writeOpsScrape(*opsScrapePath, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: ops:", err)
			os.Exit(1)
		}
	}
	if *scaleJSON != "" {
		if err := writeScaleJSON(*scaleJSON, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: scale:", err)
			os.Exit(1)
		}
	}
	if *parallelPath != "" {
		if err := writeParallelReport(*parallelPath, *seed, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: parallel:", err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: memprofile:", err)
			os.Exit(1)
		}
	}
	if *blockProfile != "" {
		if err := writePprofProfile(*blockProfile, "block"); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: blockprofile:", err)
			os.Exit(1)
		}
	}
	if *mutexProfile != "" {
		if err := writePprofProfile(*mutexProfile, "mutex"); err != nil {
			fmt.Fprintln(os.Stderr, "archsim: mutexprofile:", err)
			os.Exit(1)
		}
	}
	if *wallCeiling > 0 {
		// Exit paths skip deferred cleanup, so close the CPU profile
		// before tripping (StopCPUProfile is a no-op when idle).
		pprof.StopCPUProfile()
		if err := checkWallCeiling(*wallCeiling, reports); err != nil {
			fmt.Fprintln(os.Stderr, "archsim:", err)
			os.Exit(1)
		}
	}
}

// writeMemProfile snapshots the heap after a forced GC so the profile
// reflects live objects, not garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// scaleFile is the schema of the file -scale-json writes: the E19
// wall-clock benchmark trajectory (CI archives it per commit as
// BENCH_scale.json).
type scaleFile struct {
	Schema  string             `json:"schema"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// writeScaleJSON persists the scale experiment's metrics — wall-clock
// seconds, virtual-to-real ratio, peak RSS, flows per second — so the
// repo accumulates a machine-readable wall-clock trajectory alongside
// the virtual-throughput one from -bench-json.
func writeScaleJSON(path string, seed int64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Name != "scale" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(scaleFile{Schema: "archsim-scale/v1", Seed: seed, Metrics: r.Metrics}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no scale report in this run (use -exp scale)")
}

// checkWallCeiling fails the run if a wall-clock-measured experiment
// (scale or parallel) blew past the ceiling — the CI tripwire for
// wall-clock regressions.
func checkWallCeiling(ceiling float64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Name != "scale" && r.Name != "parallel" {
			continue
		}
		if w := r.Metrics["wall_seconds"]; w > ceiling {
			return fmt.Errorf("%s: wall clock %.1fs exceeds ceiling %.1fs", r.Name, w, ceiling)
		}
		return nil
	}
	return fmt.Errorf("wall-ceiling: no wall-clock report in this run (use -exp scale or -exp parallel)")
}

// scrubFile is the schema of the file -scrub-report writes: every
// scrubber pass the run's experiments performed, in report order.
type scrubFile struct {
	Schema string            `json:"schema"`
	Seed   int64             `json:"seed"`
	Passes []tsm.ScrubReport `json:"passes"`
}

// writeScrubReport persists the scrubber pass reports of the completed
// run (CI archives the file as a build artifact).
func writeScrubReport(path string, seed int64, reports []experiments.Report) error {
	out := scrubFile{Schema: "archsim-scrub/v1", Seed: seed}
	for _, r := range reports {
		out.Passes = append(out.Passes, r.Scrub...)
	}
	if len(out.Passes) == 0 {
		fmt.Fprintln(os.Stderr, "archsim: scrub: no experiment in this run performed a scrub pass")
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// drFile is the schema of the file -dr-report writes: the
// disaster-recovery drill's replication and failover summary.
type drFile struct {
	Schema string                `json:"schema"`
	Seed   int64                 `json:"seed"`
	DR     *experiments.DRReport `json:"dr"`
}

// writeDRReport persists the DR drill's replication summary (CI
// archives the file as a build artifact on every push).
func writeDRReport(path string, seed int64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.DR == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(drFile{Schema: "archsim-dr/v1", Seed: seed, DR: r.DR}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no DR report in this run (use -exp dr)")
}

// tenantFile is the schema of the file -tenant-report writes: the
// multi-tenant QoS study's per-class queue-wait summary.
type tenantFile struct {
	Schema  string                    `json:"schema"`
	Seed    int64                     `json:"seed"`
	Tenants *experiments.TenantReport `json:"tenants"`
}

// writeTenantReport persists the multi-tenant QoS study's summary (CI
// archives the file as a build artifact on every push).
func writeTenantReport(path string, seed int64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Tenants == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tenantFile{Schema: "archsim-tenants/v1", Seed: seed, Tenants: r.Tenants}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no tenant report in this run (use -exp tenants)")
}

// stormFile is the schema of the file -storm-report writes: the
// overload-resilience study's per-cohort goodput curves and defense
// counters.
type stormFile struct {
	Schema string                   `json:"schema"`
	Seed   int64                    `json:"seed"`
	Storm  *experiments.StormReport `json:"storm"`
}

// writeStormReport persists the overload study's summary (CI archives
// the file as a build artifact on every push).
func writeStormReport(path string, seed int64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Storm == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stormFile{Schema: "archsim-storm/v1", Seed: seed, Storm: r.Storm}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no storm report in this run (use -exp storm)")
}

// parallelBenchFile is the schema of the file -parallel-bench-json
// writes: the engine's scaling trajectory over island counts, the CI
// artifact BENCH_parallel.json.
type parallelBenchFile struct {
	Schema string               `json:"schema"`
	Seed   int64                `json:"seed"`
	Jobs   int                  `json:"jobs"`
	Cores  int                  `json:"cores"`
	Sweep  []parallelBenchPoint `json:"sweep"`
}

type parallelBenchPoint struct {
	Islands      int     `json:"islands"`
	WallSeconds  float64 `json:"wall_seconds"`
	Files        int     `json:"files"`
	Events       uint64  `json:"events"`
	FilesPerSec  float64 `json:"files_per_wall_second"`
	EventsPerSec float64 `json:"events_per_wall_second"`
}

// writeParallelBenchJSON sweeps the parallel engine over 1/2/4/8
// islands (one worker each, no A/B baseline) and records throughput
// per island count.
func writeParallelBenchJSON(path string, seed int64, jobs int) error {
	out := parallelBenchFile{
		Schema: "archsim-parallel-bench/v1", Seed: seed, Jobs: jobs,
		Cores: runtime.NumCPU(),
	}
	for _, n := range []int{1, 2, 4, 8} {
		_, pr := experiments.ParallelRun(experiments.ParallelParams{
			Seed: seed, Islands: n, Workers: n, Jobs: jobs, NoBaseline: true,
		})
		out.Sweep = append(out.Sweep, parallelBenchPoint{
			Islands: n, WallSeconds: pr.WallSeconds,
			Files: pr.Files, Events: pr.Events,
			FilesPerSec: pr.FilesPerSec, EventsPerSec: pr.EventsPerSec,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// parallelFile is the schema of the file -parallel-report writes.
type parallelFile struct {
	Schema   string                      `json:"schema"`
	Seed     int64                       `json:"seed"`
	Parallel *experiments.ParallelReport `json:"parallel"`
}

// writeParallelReport persists the parallel-engine study's summary (CI
// archives the file as a build artifact on every push).
func writeParallelReport(path string, seed int64, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Parallel == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(parallelFile{Schema: "archsim-parallel/v1", Seed: seed, Parallel: r.Parallel}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no parallel report in this run (use -exp parallel)")
}

// writePprofProfile writes a named runtime profile (block, mutex) at
// exit; the profiling workflow in the README reads island imbalance
// out of these.
func writePprofProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// writeOpsReport persists the operator drill's summary (CI archives
// the file as a build artifact). The final scrape body is written
// separately by -ops-scrape, not embedded in the JSON.
func writeOpsReport(path string, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Ops == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Ops); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no ops report in this run (use -exp ops)")
}

// writeOpsScrape persists the drill's final live /metrics scrape
// verbatim — the artifact CI validates and archives: real bytes that
// went over HTTP, not a post-hoc re-render.
func writeOpsScrape(path string, reports []experiments.Report) error {
	for _, r := range reports {
		if r.Ops == nil || r.Ops.FinalScrape == "" {
			continue
		}
		if err := os.WriteFile(path, []byte(r.Ops.FinalScrape), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "archsim: wrote", path)
		return nil
	}
	return fmt.Errorf("no live scrape in this run (use -exp ops)")
}

// writeFlightFromReports persists the flight dump of the completed run:
// the last report that carries one wins (for -exp all that is the
// observability self-check's chaos pass, the most interesting history).
func writeFlightFromReports(path string, reports []experiments.Report) error {
	var dump *telemetry.FlightDump
	for _, r := range reports {
		if r.Flight != nil {
			dump = r.Flight
		}
	}
	if dump == nil {
		fmt.Fprintln(os.Stderr, "archsim: flight: no experiment in this run carries a flight dump")
		return nil
	}
	return writeFlightDump(path, dump)
}

func writeFlightDump(path string, dump *telemetry.FlightDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// benchReport is one experiment's metric set in the bench JSON file.
type benchReport struct {
	Name    string             `json:"name"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchFile is the schema of the file -bench-json writes. Rates are
// virtual MB/s: bytes moved against the simulation clock, so the
// numbers are deterministic per seed and comparable across commits
// regardless of the machine running them.
type benchFile struct {
	Schema   string             `json:"schema"`
	Seed     int64              `json:"seed"`
	Unit     string             `json:"unit"`
	Headline map[string]float64 `json:"headline"`
	Reports  []benchReport      `json:"reports"`
}

// writeBenchJSON runs the campaign and fabric experiments and writes
// their throughput metrics to path, seeding the repo's performance
// trajectory: CI archives the file per commit, and a regression shows
// up as a drop in the headline virtual MB/s rather than a wall-clock
// blip.
func writeBenchJSON(path string, seed int64, jobs int) error {
	_, camp := experiments.CampaignData(experiments.CampaignParams{Seed: seed, Jobs: jobs})
	reports := append(camp, experiments.FabricBottleneck(seed))

	out := benchFile{
		Schema:   "archsim-bench/v1",
		Seed:     seed,
		Unit:     "virtual MB/s",
		Headline: map[string]float64{},
	}
	for _, r := range reports {
		out.Reports = append(out.Reports, benchReport{Name: r.Name, Title: r.Title, Metrics: r.Metrics})
		switch r.Name {
		case "fig10": // per-job campaign data rates
			out.Headline["campaign_mean_mbs"] = r.Metrics["mean"]
			out.Headline["campaign_max_mbs"] = r.Metrics["max"]
		case "fabric":
			out.Headline["fabric_plateau_mbs"] = r.Metrics["plateau_mbs"]
			out.Headline["fabric_trunk_ceiling_mbs"] = r.Metrics["trunk_ceiling_mbs"]
		}
	}
	sort.Slice(out.Reports, func(i, j int) bool { return out.Reports[i].Name < out.Reports[j].Name })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// saveCampaignTrace writes the exact job sequence the campaign will
// run, so the experiment replays bit-identically elsewhere.
func saveCampaignTrace(path string, p experiments.CampaignParams) error {
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteTrace(f, p.Seed, workload.Generate(cfg)); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}

// writeCampaignCSV dumps the per-job series behind Figures 8–11, one
// row per job, ready for external plotting.
func writeCampaignCSV(dir string, data archive.CampaignResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "campaign_jobs.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{
		"job", "project", "files", "bytes", "gb", "rate_mbs",
		"avg_file_mb", "elapsed_s", "background",
	}); err != nil {
		return err
	}
	for _, j := range data.Jobs {
		avgMB := 0.0
		if j.Files > 0 {
			avgMB = float64(j.Bytes) / float64(j.Files) / 1e6
		}
		if err := w.Write([]string{
			strconv.Itoa(j.Spec.ID),
			j.Spec.Project,
			strconv.Itoa(j.Files),
			strconv.FormatInt(j.Bytes, 10),
			strconv.FormatFloat(float64(j.Bytes)/1e9, 'f', 3, 64),
			strconv.FormatFloat(j.RateMBs, 'f', 2, 64),
			strconv.FormatFloat(avgMB, 'f', 3, 64),
			strconv.FormatFloat(j.Elapsed.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(j.Spec.Background, 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "archsim: wrote", path)
	return nil
}
