// Command bench is the repository's benchmark: six archive workloads
// driven through the exported functions of internal/*, end-to-end host
// and simulated metrics with a regression bound each, per-layer counts,
// probes and estimates, one traced run per workload, and an output
// check per workload. See README.md.
//
//	go run -C bench .                        every workload: reps, traced run, tables, out/result.json
//	go run -C bench . -compare old.json new.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1    one driver run (BENCHMARK.json's command)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	reps     int
	out      string
	compare  bool

	// Driver mode (BENCHMARK.json's command).
	seconds float64
	trace   int

	// The child side of spawn.
	child   bool
	traced  bool
	started int64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (comma-separated; default all)")
	flag.Int64Var(&o.seed, "seed", 2010, "seed of the generated inputs")
	flag.IntVar(&o.reps, "reps", 5, "cold child processes per workload")
	flag.StringVar(&o.out, "out", "", "result file (default bench/out/result.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Float64Var(&o.seconds, "seconds", 0, "driver mode: seconds of timed calls to accumulate in this run")
	flag.IntVar(&o.trace, "trace", 0, "driver mode: 1 reports the per-layer metrics of a traced run")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload once and print its result")
	flag.BoolVar(&o.traced, "traced", false, "internal: with -child, the traced run")
	flag.Int64Var(&o.started, "started", 0, "internal: with -child, when the parent started it (unix ns)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.child {
		return childMain(params{Workload: o.workload, Seed: o.seed, Scale: 1, Traced: o.traced}, o.started)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	m, err := loadManifest(root)
	if err != nil {
		return err
	}
	if err := m.check(); err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files, got %d", len(args))
		}
		old, err := loadSuite(args[0])
		if err != nil {
			return err
		}
		cur, err := loadSuite(args[1])
		if err != nil {
			return err
		}
		if compareSuites(os.Stdout, m, old, cur) {
			return fmt.Errorf("regression or model change against %s", args[0])
		}
		return nil
	case o.seconds > 0:
		return contractRun(params{Workload: o.workload, Seed: o.seed, Scale: 1}, o.seconds, o.trace == 1, outDir)
	}
	var names []string
	if o.workload != "" {
		names = strings.Split(o.workload, ",")
	}
	res, err := runSuite(spawn, names, o.seed, o.reps, 1, outDir)
	if err != nil {
		return err
	}
	printSuite(os.Stdout, res)
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	if err := writeJSON(out, res); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", out)
	for _, wr := range res.Workloads {
		if !wr.correct() {
			return fmt.Errorf("%s: output checks failed", wr.Name)
		}
	}
	return nil
}
