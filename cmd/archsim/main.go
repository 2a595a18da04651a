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
//	archsim -exp dr -report dr.json                 # the run's reports as JSON (archsim-report/v1)
//	archsim -exp chaos -flight-record flight.json   # dump recent spans/events
//	archsim -exp fabric -metrics-text               # Prometheus-style metrics
//	archsim -serve :9090 -pace 60                   # live operator plane over the campaign
//	archsim -exp ops -ops-scrape metrics_live.txt   # E22 scripted operator drill
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns the process exit code: 0 on
// success, 1 when an output cannot be written, 2 on a usage error (bad
// flag, unknown experiment). Returning — never os.Exit — lets the
// deferred CPU-profile stop flush on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (see -list)")
	seed := fs.Int64("seed", 2010, "workload seed")
	jobs := fs.Int("jobs", 0, "override campaign job count (0 = the paper's 62)")
	full := fs.Bool("full", false, "lift the per-job file-count cap (needs several GB of memory)")
	csvDir := fs.String("csv", "", "write per-job campaign data as CSV into this directory")
	reportPath := fs.String("report", "", "write the run's reports (name, title, body, metrics, notes, per-experiment detail) as JSON to this file, schema archsim-report/v1")
	flightPath := fs.String("flight-record", "", "write the run's flight-recorder dump (recent spans and events) as JSON to this file, including on invariant-violation crashes")
	metricsText := fs.Bool("metrics-text", false, "print each experiment's telemetry registry in Prometheus text exposition format")
	serveAddr := fs.String("serve", "", "serve the live operator plane on this address (e.g. :9090) while running the campaign; /metrics, /events, /spans, /snapshot, /ops/...")
	pace := fs.Float64("pace", -1, "with -serve, throttle the clock to this many virtual seconds per real second (-1 = default 60; 0 = free-run)")
	opsScrapePath := fs.String("ops-scrape", "", "write the operator drill's final live /metrics scrape verbatim to this file")
	islands := fs.Int("islands", 0, "with -exp parallel, concurrent-island worker cap (1 = single-threaded reference; 0 = one per core)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file at exit (island imbalance shows up here)")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "archsim: %s: %v\n", what, err)
		return 1
	}
	wrote := func(path string) { fmt.Fprintln(stderr, "archsim: wrote", path) }

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile", err)
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
		fmt.Fprintln(stdout, strings.Join(experiments.Names(), "\n"))
		return 0
	}

	if *flightPath != "" {
		// Experiment invariants panic from simulation actors, and the
		// ring to dump belongs to a clock only the experiment holds —
		// so the crash dump is written synchronously in the sink.
		experiments.SetCrashFlightSink(func(d *telemetry.FlightDump) {
			if err := writeJSON(*flightPath, d); err != nil {
				fail("flight", err)
				return
			}
			wrote(*flightPath)
		})
		defer experiments.SetCrashFlightSink(nil)
	}

	if *serveAddr != "" {
		p := *pace
		if p < 0 {
			p = 60
		}
		if err := serveLive(*serveAddr, p, *seed, *jobs); err != nil {
			fmt.Fprintln(stderr, "archsim:", err)
			return 1
		}
		return 0
	}

	var reports []experiments.Report
	switch *exp {
	case "campaign", "fig8", "fig9", "fig10", "fig11":
		p := experiments.CampaignParams{Seed: *seed, Jobs: *jobs}
		if *full {
			p.MaxSimFiles = -1
		}
		var data archive.CampaignResult
		data, reports = experiments.CampaignData(p)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "campaign_jobs.csv")
			if err := writeCampaignCSV(path, data); err != nil {
				return fail("csv", err)
			}
			wrote(path)
		}
	case "parallel":
		p := experiments.ParallelParams{Seed: *seed, Jobs: *jobs, Workers: *islands}
		if *full {
			p.MaxSimFiles = -1
		}
		r, _ := experiments.ParallelRun(p)
		reports = []experiments.Report{r}
	default:
		var err error
		reports, err = experiments.Run(*exp, *seed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			if errors.Is(err, experiments.ErrUnknownExperiment) {
				fmt.Fprintln(stderr, "available experiments:")
				for _, n := range experiments.Names() {
					fmt.Fprintln(stderr, "  "+n)
				}
			}
			return 2
		}
	}
	for _, r := range reports {
		fmt.Fprintln(stdout, r)
	}
	if *metricsText {
		for _, r := range reports {
			if r.Telemetry != nil {
				fmt.Fprintf(stdout, "# == %s ==\n%s", r.Name, r.Telemetry.Text())
			}
		}
	}

	// Every file the flags asked for; the first failure ends the run.
	dump := lastFlight(reports)
	if dump == nil && *flightPath != "" {
		fmt.Fprintln(stderr, "archsim: flight: no experiment in this run carries a flight dump")
		*flightPath = ""
	}
	outputs := []struct {
		what, path string
		write      func(path string) error
	}{
		{"report", *reportPath, func(p string) error {
			return writeJSON(p, reportFile{Schema: "archsim-report/v1", Seed: *seed, Reports: reports})
		}},
		{"flight", *flightPath, func(p string) error { return writeJSON(p, dump) }},
		{"ops", *opsScrapePath, func(p string) error { return writeOpsScrape(p, reports) }},
		{"memprofile", *memProfile, writeMemProfile},
		{"blockprofile", *blockProfile, func(p string) error { return writePprofProfile(p, "block") }},
		{"mutexprofile", *mutexProfile, func(p string) error { return writePprofProfile(p, "mutex") }},
	}
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		if err := o.write(o.path); err != nil {
			return fail(o.what, err)
		}
		wrote(o.path)
	}
	return 0
}

// reportFile is the one machine-readable artifact archsim writes: the
// run's reports under a versioned envelope (DESIGN.md documents
// archsim-report/v1). An experiment's structured record rides in its
// report's Detail, so a new experiment needs no change here.
type reportFile struct {
	Schema  string               `json:"schema"`
	Seed    int64                `json:"seed"`
	Reports []experiments.Report `json:"reports"`
}

// writeJSON writes v, indented, as the whole content of path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastFlight picks the flight dump of the completed run: the last
// report that carries one wins (for -exp all that is the observability
// self-check's chaos pass, the most interesting history).
func lastFlight(reports []experiments.Report) *telemetry.FlightDump {
	var dump *telemetry.FlightDump
	for _, r := range reports {
		if r.Flight != nil {
			dump = r.Flight
		}
	}
	return dump
}

// writeOpsScrape persists the drill's final live /metrics scrape
// verbatim — the artifact CI validates and archives: real bytes that
// went over HTTP, not a post-hoc re-render.
func writeOpsScrape(path string, reports []experiments.Report) error {
	for _, r := range reports {
		if ops, ok := r.Detail.(*experiments.OpsReport); ok && ops.FinalScrape != "" {
			return os.WriteFile(path, []byte(ops.FinalScrape), 0o644)
		}
	}
	return fmt.Errorf("no live scrape in this run (use -exp ops)")
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
	return pprof.WriteHeapProfile(f)
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
	return pprof.Lookup(name).WriteTo(f, 0)
}

// writeCampaignCSV dumps the per-job series behind Figures 8–11, one
// row per job, ready for external plotting.
func writeCampaignCSV(path string, data archive.CampaignResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
	return nil
}
