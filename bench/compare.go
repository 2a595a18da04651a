package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Header.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Header.Schema, resultSchema)
	}
	return &s, nil
}

const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
	verdictModel      = "MODEL CHANGE"

	paperErrBoundPoints = 0.5
)

// judge compares one bounded metric's runs. Where the parent's own
// min-max spread exceeds the bound the medians cannot settle it: the
// verdict is unresolved unless every run of one side beats every run
// of the other.
func judge(old, cur stat, lowerIsBetter bool, bound float64) string {
	if old.Median == 0 {
		return verdictUnresolved
	}
	worseBy := (cur.Median - old.Median) / old.Median
	oldBest, oldWorst, curBest, curWorst := old.Min, old.Max, cur.Min, cur.Max
	if !lowerIsBetter {
		worseBy = -worseBy
		oldBest, oldWorst, curBest, curWorst = -old.Max, -old.Min, -cur.Max, -cur.Min
	}
	if spread := (old.Max - old.Min) / math.Abs(old.Median); spread > bound {
		switch {
		case curWorst < oldBest:
			return verdictBetter
		case curBest > oldWorst && worseBy > bound:
			return verdictRegression
		case curBest > oldWorst:
			return verdictOK
		}
		return verdictUnresolved
	}
	switch {
	case worseBy > bound:
		return verdictRegression
	case curWorst < oldBest:
		return verdictBetter
	}
	return verdictOK
}

// compareSuites prints each workload in its own block, every ratio with
// its base (the old median), and reports whether anything regressed or
// any simulated number changed.
func compareSuites(w io.Writer, m *manifest, old, cur *suiteResult) (failed bool) {
	if old.Header.Seed != cur.Header.Seed {
		fmt.Fprintf(w, "not comparable: old ran seed %d, new ran seed %d\n", old.Header.Seed, cur.Header.Seed)
		return true
	}
	fmt.Fprintf(w, "old: commit %s, %d reps, load1 %.2f    new: commit %s, %d reps, load1 %.2f\n",
		old.Header.Commit, old.Header.Reps, old.Header.LoadAvg1, cur.Header.Commit, cur.Header.Reps, cur.Header.LoadAvg1)
	if old.Header.Noisy || cur.Header.Noisy {
		fmt.Fprintln(w, "warning: a side was measured on a loaded machine (noisy)")
	}
	kind := make(map[string]string)
	for _, d := range endToEnd {
		kind[d.Name] = d.Kind
	}
	for _, ow := range old.Workloads {
		cw := cur.workload(ow.Name)
		if cw == nil {
			fmt.Fprintf(w, "\n== %s: missing from the new run\n", ow.Name)
			failed = true
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", ow.Name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\told median\tnew median\tnew/old\tbound\tverdict")
		row := func(name string, o, c float64, bound, verdict string) {
			ratio := "n/a"
			if o != 0 {
				ratio = fmt.Sprintf("%.3f of %s", c/o, num(o))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", name, num(o), num(c), ratio, bound, verdict)
			if verdict == verdictRegression || verdict == verdictModel {
				failed = true
			}
		}
		exact := func(name string, o, c float64) {
			v := verdictOK
			if o != c {
				v = verdictModel
			}
			row(name, o, c, "exact", v)
		}
		for _, e := range m.EndToEnd {
			o, c := ow.EndToEnd[e.Name], cw.EndToEnd[e.Name]
			if kind[e.Name] == kindSim {
				exact(e.Name, o.Median, c.Median)
				continue
			}
			v := judge(o, c, e.Better == "lower", e.Bound)
			row(e.Name, o.Median, c.Median, fmt.Sprintf("%.0f%%", e.Bound*100), v)
		}
		if ow.PaperErrPct != nil && cw.PaperErrPct != nil {
			v := verdictOK
			if *cw.PaperErrPct-*ow.PaperErrPct > paperErrBoundPoints {
				v = verdictRegression
			}
			row("paper_err_pct", *ow.PaperErrPct, *cw.PaperErrPct, fmt.Sprintf("+%.1f points", paperErrBoundPoints), v)
		}
		v := verdictOK
		if cw.FailRatio > 0 || len(cw.Errors) > 0 {
			v = verdictRegression
		}
		row("fail_ratio", ow.FailRatio, cw.FailRatio, "0", v)
		// Only the layer metrics that moved are worth a row.
		same := 0
		for _, d := range perLayer {
			if !d.exact() {
				continue
			}
			if o, c := ow.Layers[d.Name], cw.Layers[d.Name]; o != c {
				exact(d.Name, o, c)
			} else {
				same++
			}
		}
		tw.Flush()
		digest := "identical"
		if ow.SimDigest != cw.SimDigest {
			digest = verdictModel + ": " + ow.SimDigest + " -> " + cw.SimDigest
			failed = true
		}
		fmt.Fprintf(w, "%d count and sim layer metrics identical; sim_digest %s\n", same, digest)
	}
	return failed
}
