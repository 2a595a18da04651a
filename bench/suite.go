package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// manifest is BENCHMARK.json: the committed declaration of workloads,
// metrics and the bound by which each end-to-end metric may worsen.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (bench/run.sh) or its parent (go run -C bench .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// check holds BENCHMARK.json to the code: the workloads and metrics it
// declares are the ones this program emits, in both directions. Every
// command runs it, the driver's included, so that a stale declaration
// stops the benchmark instead of going unnoticed.
func (m *manifest) check() error {
	var stale []string
	diff := func(what string, declared, emitted []string) {
		d, e := make(map[string]bool), make(map[string]bool)
		for _, n := range declared {
			d[n] = true
		}
		for _, n := range emitted {
			e[n] = true
			if !d[n] {
				stale = append(stale, fmt.Sprintf("%s %q is emitted but not declared", what, n))
			}
		}
		for _, n := range declared {
			if !e[n] {
				stale = append(stale, fmt.Sprintf("%s %q is declared but not emitted", what, n))
			}
		}
	}
	metric := func(e manifestMetric) string { return e.Name }
	decl := func(d metricDecl) string { return d.Name }
	diff("workload", namesOf(m.Workloads, func(w manifestWorkload) string { return w.Name }),
		namesOf(workloads, func(w *workloadSpec) string { return w.name }))
	diff("end_to_end metric", namesOf(m.EndToEnd, metric), namesOf(endToEnd, decl))
	diff("per_layer metric", namesOf(m.PerLayer, metric), namesOf(perLayer, decl))
	if len(stale) > 0 {
		return fmt.Errorf("BENCHMARK.json is stale:\n  %s", strings.Join(stale, "\n  "))
	}
	return nil
}

// namesOf maps a slice to the names of its items.
func namesOf[T any](items []T, name func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = name(it)
	}
	return out
}

// runner runs one workload once. The benchmark spawns a fresh child
// process per run; the test runs in-process.
type runner func(p params) (*runResult, error)

// spawn re-executes this binary as `-child`, so that VmHWM, GC state
// and Mallocs belong to one run alone and a cold start is paid every
// time, as `archsim -exp` users pay it.
func spawn(p params) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", "-workload", p.Workload,
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if p.Traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", p.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s child: result: %w", p.Workload, err)
	}
	return &res, nil
}

// childMain is the `-child` side of spawn.
func childMain(p params, startedNs int64) error {
	if startedNs > 0 {
		p.started = time.Unix(0, startedNs)
	}
	res, err := runWorkload(p)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// workloadResult is one workload's row of the report.
type workloadResult struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Files int    `json:"files"`
	Bytes int64  `json:"bytes"`

	EndToEnd map[string]stat `json:"end_to_end"`
	// PaperErrPct and FailRatio complete the nine end-to-end metrics;
	// both are simulated, hence one value, not a distribution.
	PaperErrPct *float64 `json:"paper_err_pct,omitempty"`
	FailRatio   float64  `json:"fail_ratio"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	SimDigest   string   `json:"sim_digest"`

	Layers      map[string]float64 `json:"layers,omitempty"`
	ModuleSelfS map[string]float64 `json:"module_self_s,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`

	// Errors are the output checks that failed; empty on a good run.
	Errors []string `json:"errors,omitempty"`
}

func (w *workloadResult) fail(format string, args ...any) {
	w.Errors = append(w.Errors, fmt.Sprintf(format, args...))
}

func (w *workloadResult) correct() bool { return len(w.Errors) == 0 && w.Failed == 0 }

// measure runs untraced reps of one workload, one after another, until
// enough(reps so far, timed seconds so far), and summarises them.
func measure(run runner, p params, enough func(reps int, timedS float64) bool) (*workloadResult, error) {
	wr := &workloadResult{Name: p.Workload, Seed: p.Seed, EndToEnd: make(map[string]stat)}
	values := make(map[string][]float64)
	var timedS float64
	for reps := 0; !enough(reps, timedS); reps++ {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		timedS += r.Host.WallS
		for k, v := range endToEndValues(r) {
			values[k] = append(values[k], v)
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		if reps == 0 {
			wr.Files, wr.Bytes, wr.SimDigest, wr.PaperErrPct = r.Files, r.Bytes, r.SimDigest, r.PaperErrPct
		} else if r.SimDigest != wr.SimDigest {
			wr.fail("rep %d: sim_digest %s differs from rep 0's %s", reps, r.SimDigest, wr.SimDigest)
		}
	}
	for k, v := range values {
		wr.EndToEnd[k] = summarize(v)
	}
	if wr.Attempted > 0 {
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	}
	if wr.Failed > 0 {
		wr.fail("%d of %d operations failed or are missing", wr.Failed, wr.Attempted)
	}
	return wr, nil
}

func fixedReps(n int) func(int, float64) bool {
	return func(reps int, _ float64) bool { return reps >= n }
}

// traceWorkload makes the one traced run: the span-recording loop plus
// the verify pass. It must reproduce the untraced runs' digest. The
// spans go to <outDir>/trace-<workload>.json when outDir is set.
func traceWorkload(run runner, p params, wr *workloadResult, probes map[string]float64, outDir string) error {
	p.Traced = true
	r, err := run(p)
	if err != nil {
		return err
	}
	if r.SimDigest != wr.SimDigest {
		wr.fail("traced run: sim_digest %s differs from the untraced %s", r.SimDigest, wr.SimDigest)
	}
	if r.Failed > 0 {
		wr.fail("traced run: %d of %d operations failed or are missing", r.Failed, r.Attempted)
	}
	if r.VerifyError != "" {
		wr.fail("verify: %s", r.VerifyError)
	}
	wr.Layers = layerMetrics(r, probes, wr.EndToEnd["wall_s"].Median)
	// The estimated shares are parts of the timed call and cannot exceed
	// it. Below the benchmark's own sizes they are not held to that: the
	// Noise streams' flows, which do not shrink with the file count, are
	// costed at the copy's probe and swamp the short timed call.
	if u := wr.Layers["bench.unattributed_share"]; p.Scale == 1 && (u < 0 || u > 1) {
		wr.fail("bench.unattributed_share = %.3f: the est_share of the layers do not fit the timed call", u)
	}
	wr.ModuleSelfS = moduleSelfSeconds(r.Spans)
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	wr.TraceFile = filepath.Join(outDir, "trace-"+wr.Name+".json")
	return writeJSON(wr.TraceFile, struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{wr.Name, wr.Seed, r.Spans})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// header records where and when a suite ran.
type header struct {
	Schema     string  `json:"schema"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg1"`
	// Noisy is set when load1 at start exceeded nproc/2: host numbers
	// from such a run are not fit to commit as a baseline.
	Noisy bool  `json:"noisy"`
	Seed  int64 `json:"seed"`
	Reps  int   `json:"reps"`
}

const resultSchema = "archbench/v1"

func newHeader(seed int64, reps int) header {
	h := header{
		Schema: resultSchema, Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg1: loadAvg1(), Seed: seed, Reps: reps,
	}
	h.Noisy = h.LoadAvg1 > float64(h.NProc)/2
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// suiteResult is the file a full run writes and -compare reads.
type suiteResult struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func (s *suiteResult) workload(name string) *workloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runSuite measures the named workloads (all when names is empty):
// reps untraced runs each, one traced run each, the probes once. scale
// is 1 except in the test.
func runSuite(run runner, names []string, seed int64, reps, scale int, outDir string) (*suiteResult, error) {
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	res := &suiteResult{Header: newHeader(seed, reps)}
	probes := runProbes(scale)
	for _, name := range names {
		p := params{Workload: name, Seed: seed, Scale: scale}
		wr, err := measure(run, p, fixedReps(reps))
		if err != nil {
			return nil, err
		}
		if err := traceWorkload(run, p, wr, probes, outDir); err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

// contractRun is one driver run: `--workload W --seed N --seconds S
// --trace 0|1`. Untraced, it repeats cold runs until S seconds of timed
// calls have accumulated (three at least) and reports each end-to-end
// metric's median. Traced, it makes one untraced run for reference, one
// traced run, and the probes, and reports every per-layer metric. The
// result is the last line of standard output.
func contractRun(p params, seconds float64, trace bool, outDir string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}

	enough := func(reps int, timedS float64) bool { return reps >= 3 && timedS >= seconds }
	if trace {
		enough = fixedReps(1)
	}
	wr, err := measure(spawn, p, enough)
	if err != nil {
		return err
	}
	if trace {
		if err := traceWorkload(spawn, p, wr, runProbes(p.Scale), outDir); err != nil {
			return err
		}
		for _, d := range perLayer {
			out.Metrics[d.Name] = value{wr.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = value{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	for _, e := range wr.Errors {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	out.Correct, out.Attempted, out.Failed = wr.correct(), max(wr.Attempted, 1), wr.Failed
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
