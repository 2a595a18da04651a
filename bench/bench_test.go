package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

const testScale = 200

func sameNames(t *testing.T, what string, declared, emitted []string) {
	t.Helper()
	d, e := make(map[string]bool), make(map[string]bool)
	for _, n := range declared {
		d[n] = true
	}
	for _, n := range emitted {
		e[n] = true
		if !d[n] {
			t.Errorf("%s: %q is emitted but not declared in BENCHMARK.json", what, n)
		}
	}
	for _, n := range declared {
		if !e[n] {
			t.Errorf("%s: %q is declared in BENCHMARK.json but not emitted", what, n)
		}
	}
}

// TestSuiteAtSmallScale runs every workload (untraced and traced, with
// its verify pass) and every probe at 1/200 scale, in-process, and
// holds the output to what BENCHMARK.json declares.
func TestSuiteAtSmallScale(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSuite(runWorkload, nil, 2010, 1, testScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricName := func(e manifestMetric) string { return e.Name }
	declaredE2E := namesOf(m.EndToEnd, metricName)
	declaredLayers := namesOf(m.PerLayer, metricName)
	declaredWorkloads := namesOf(m.Workloads, func(w manifestWorkload) string { return w.Name })
	for _, n := range append(append(declaredE2E, declaredLayers...), declaredWorkloads...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
	if err := m.check(); err != nil {
		t.Error(err)
	}
	sameNames(t, "workloads", declaredWorkloads, namesOf(res.Workloads, func(w *workloadResult) string { return w.Name }))

	for _, wr := range res.Workloads {
		for _, e := range wr.Errors {
			t.Errorf("%s: check failed: %s", wr.Name, e)
		}
		if wr.Failed != 0 || wr.Attempted == 0 || wr.FailRatio != 0 {
			t.Errorf("%s: %d of %d operations failed", wr.Name, wr.Failed, wr.Attempted)
		}
		sameNames(t, wr.Name+" end_to_end", declaredE2E, sortedKeys(wr.EndToEnd))
		sameNames(t, wr.Name+" per_layer", declaredLayers, sortedKeys(wr.Layers))
		for k, st := range wr.EndToEnd {
			if !(st.Median > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.Name, k, st.Median)
			}
		}
		for k, v := range wr.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: layer metric %s = %v", wr.Name, k, v)
			}
		}
		checkTrace(t, wr)
	}

	// The layers tell the workloads apart as the README predicts.
	layers := func(w string) map[string]float64 { return res.workload(w).Layers }
	if big, small := layers("pfcp-bigfiles")["fabric.flows_per_file"], layers("pfcp-smallfiles")["fabric.flows_per_file"]; big < 5*small {
		t.Errorf("fabric.flows_per_file: bigfiles %v, smallfiles %v; want >= 5x", big, small)
	}
	for _, wr := range res.Workloads {
		tape := wr.Name == "tape-migrate" || wr.Name == "tape-recall"
		if got := wr.Layers["tsm.stores"] + wr.Layers["tsm.recalls"]; (got > 0) != tape {
			t.Errorf("%s: tsm.stores + tsm.recalls = %v", wr.Name, got)
		}
		if got := wr.Layers["simtime.island_events"]; (got > 0) != (wr.Name == "islands") {
			t.Errorf("%s: simtime.island_events = %v", wr.Name, got)
		}
	}

	// Counts cover the timed call alone: tape-recall's set-up migrates
	// every file, and none of that work may be charged to the retrieve.
	n := float64(tapeFileCount(testScale))
	for name, want := range map[string]map[string]float64{
		"tape-migrate": {"tsm.stores": n, "tsm.recalls": 0, "hsm.migrated_files": n, "hsm.recalled_files": 0, "hsm.recall_s": 0, "metadb.rows_added": n, "metadb.rows": n},
		"tape-recall":  {"tsm.stores": 0, "tsm.recalls": n, "hsm.migrated_files": 0, "hsm.recalled_files": n, "hsm.migrate_s": 0, "metadb.rows_added": 0, "metadb.rows": n},
	} {
		for k, v := range want {
			if got := layers(name)[k]; got != v {
				t.Errorf("%s: %s = %v, want %v", name, k, got, v)
			}
		}
	}

	// A run compared with itself has nothing to report.
	if compareSuites(io.Discard, m, res, res) {
		t.Error("a result compared with itself reports a regression")
	}
}

// checkTrace reads the trace file back: self times are non-negative
// and add up to the root span within 1 %.
func checkTrace(t *testing.T, wr *workloadResult) {
	t.Helper()
	data, err := os.ReadFile(wr.TraceFile)
	if err != nil {
		t.Errorf("%s: %v", wr.Name, err)
		return
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
		t.Errorf("%s: trace file: %d spans, err %v", wr.Name, len(file.Spans), err)
		return
	}
	var sum, root int64
	for id, self := range selfTimes(file.Spans) {
		if self < 0 {
			t.Errorf("%s: span %d has self time %d ns", wr.Name, id, self)
		}
		sum += self
	}
	for _, s := range file.Spans {
		if s.Parent == 0 {
			root += s.EndNs - s.StartNs
		}
	}
	if diff := math.Abs(float64(sum - root)); diff > 0.01*float64(root) {
		t.Errorf("%s: self times sum to %d ns, root spans to %d ns", wr.Name, sum, root)
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, StartNs: 40, EndNs: 70}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, StartNs: 20, EndNs: 30},
	}
	want := map[int]int64{1: 40, 2: 30, 3: 30, 4: 10}
	for id, got := range selfTimes(spans) {
		if got != want[id] {
			t.Errorf("span %d: self time %d, want %d", id, got, want[id])
		}
	}
}

func TestJudge(t *testing.T) {
	runs := func(v ...float64) stat { return summarize(v) }
	cases := []struct {
		name     string
		old, cur stat
		lower    bool
		bound    float64
		want     string
	}{
		{"within bound", runs(1.00, 1.01, 1.02), runs(1.04, 1.05, 1.06), true, 0.10, verdictOK},
		{"beyond bound", runs(1.00, 1.01, 1.02), runs(1.20, 1.21, 1.22), true, 0.10, verdictRegression},
		{"every run better", runs(1.00, 1.01, 1.02), runs(0.90, 0.91, 0.92), true, 0.10, verdictBetter},
		{"spread hides it", runs(0.80, 1.00, 1.30), runs(0.90, 1.10, 1.20), true, 0.10, verdictUnresolved},
		{"spread, yet every run worse", runs(0.80, 1.00, 1.30), runs(1.40, 1.50, 1.60), true, 0.10, verdictRegression},
		{"spread, yet every run better", runs(0.80, 1.00, 1.30), runs(0.50, 0.60, 0.70), true, 0.10, verdictBetter},
		{"higher is better", runs(100, 101, 102), runs(80, 81, 82), false, 0.10, verdictRegression},
	}
	for _, c := range cases {
		if got := judge(c.old, c.cur, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsModelChange(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(virt float64) *suiteResult {
		e2e := make(map[string]stat)
		for _, d := range endToEnd {
			e2e[d.Name] = summarize([]float64{1, 1, 1})
		}
		e2e["virt_mbs"] = summarize([]float64{virt, virt, virt})
		return &suiteResult{
			Header:    header{Schema: resultSchema, Seed: 2010},
			Workloads: []*workloadResult{{Name: "tape-migrate", EndToEnd: e2e, SimDigest: "d"}},
		}
	}
	if compareSuites(io.Discard, m, mk(39.76), mk(39.76)) {
		t.Error("identical results reported as changed")
	}
	if !compareSuites(io.Discard, m, mk(39.76), mk(39.77)) {
		t.Error("a different virt_mbs was not reported as a model change")
	}
}
