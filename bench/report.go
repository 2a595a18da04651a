package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
)

// num prints a value with enough digits to compare by eye and no more.
func num(v float64) string {
	switch a := math.Abs(v); {
	case v == float64(int64(v)) && a < 1e15:
		return strconv.FormatInt(int64(v), 10)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// printSuite renders the report: per workload the nine end-to-end
// metrics, then one per-layer table with a column per workload, then
// each module's self time in the traced run.
func printSuite(w io.Writer, s *suiteResult) {
	h := s.Header
	fmt.Fprintf(w, "archbench  commit %s  %s  nproc %d  GOMAXPROCS %d  load1 %.2f  seed %d  reps %d\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.LoadAvg1, h.Seed, h.Reps)
	if h.Noisy {
		fmt.Fprintln(w, "NOISY: load1 exceeded nproc/2 when the run began; do not commit these host numbers")
	}
	for _, wr := range s.Workloads {
		fmt.Fprintf(w, "\n== %s  (%d files, %.3f TB, sim_digest %.12s)\n", wr.Name, wr.Files, float64(wr.Bytes)/1e12, wr.SimDigest)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tkind\tmedian\tmin\tmax\tn")
		for _, d := range endToEnd {
			st := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d\n", d.Name, d.Unit, d.Kind, num(st.Median), num(st.Min), num(st.Max), st.N)
		}
		if wr.PaperErrPct != nil {
			fmt.Fprintf(tw, "paper_err_pct\t%%\t%s\t%s\t\t\t1\n", kindSim, num(*wr.PaperErrPct))
		} else {
			fmt.Fprintf(tw, "paper_err_pct\t%%\t%s\tn/a\t\t\t\n", kindSim)
		}
		fmt.Fprintf(tw, "fail_ratio\tratio\t%s\t%s\t\t\t%d of %d\n", kindSim, num(wr.FailRatio), wr.Failed, wr.Attempted)
		tw.Flush()
		if wr.PaperErrPct == nil {
			fmt.Fprintln(w, "the paper gives no reference for this workload: it is unvalidated at this scale")
		}
		if wall := wr.EndToEnd["wall_s"].Median; wall > 0 {
			fmt.Fprintf(w, "%.0f files/s of host time at %d files\n", float64(wr.Files)/wall, wr.Files)
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
		}
	}

	fmt.Fprintln(w, "\n== per-layer metrics (traced run, probes, estimates)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit\tkind")
	for _, wr := range s.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s", d.Name, d.Unit, d.Kind)
		for _, wr := range s.Workloads {
			fmt.Fprintf(tw, "\t%s", num(wr.Layers[d.Name]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n== traced run: self time by module (span duration minus what its children cover), seconds")
	modules := make(map[string]bool)
	for _, wr := range s.Workloads {
		for m := range wr.ModuleSelfS {
			modules[m] = true
		}
	}
	names := sortedKeys(modules)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range names {
		fmt.Fprintf(tw, "\t%s", m)
	}
	fmt.Fprintln(tw, "\ttrace file")
	for _, wr := range s.Workloads {
		fmt.Fprint(tw, wr.Name)
		for _, m := range names {
			fmt.Fprintf(tw, "\t%.3f", wr.ModuleSelfS[m])
		}
		fmt.Fprintf(tw, "\t%s\n", wr.TraceFile)
	}
	tw.Flush()
}
