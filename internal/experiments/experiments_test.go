package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestCampaignSmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replay is slow")
	}
	reports := campaign(CampaignParams{Seed: 1, Jobs: 6, MaxSimFiles: 2000})
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4 (figures 8-11)", len(reports))
	}
	names := []string{"fig8", "fig9", "fig10", "fig11"}
	for i, rep := range reports {
		if rep.Name != names[i] {
			t.Errorf("report %d = %s, want %s", i, rep.Name, names[i])
		}
		if !strings.Contains(rep.Body, "mean") {
			t.Errorf("%s body missing summary: %q", rep.Name, rep.Body)
		}
	}
	f10 := reports[2]
	if f10.Metrics["min"] <= 0 {
		t.Error("fig10 has a zero rate")
	}
	if f10.Metrics["max"] > 1880 {
		t.Errorf("fig10 max %.0f MB/s exceeds the trunk", f10.Metrics["max"])
	}
}

func TestParallelVsSerialShape(t *testing.T) {
	r := parallelVsSerial(1)
	serial := r.Metrics["serial_mbs"]
	parallel := r.Metrics["parallel_mbs"]
	// Paper shape: ~70 vs ~575 MB/s.
	if serial < 40 || serial > 110 {
		t.Errorf("serial = %.1f MB/s, want ~70", serial)
	}
	if parallel < 300 {
		t.Errorf("parallel = %.1f MB/s, want hundreds", parallel)
	}
	if r.Metrics["speedup"] < 3 {
		t.Errorf("speedup = %.1f, want > 3", r.Metrics["speedup"])
	}
}

func TestSmallFileTapeShape(t *testing.T) {
	r := smallFileTapeWith(smallFileTapeParams{SmallFiles: 400, SmallSize: 8e6, LargeFiles: 8, LargeSize: 1e9})
	small := r.Metrics["small_mbs"]
	large := r.Metrics["large_mbs"]
	agg := r.Metrics["aggregated_mbs"]
	if small < 2 || small > 8 {
		t.Errorf("small-file rate = %.1f MB/s, want ~4", small)
	}
	if large < 60 {
		t.Errorf("large-file rate = %.1f MB/s, want near rated", large)
	}
	if large/small < 5 {
		t.Errorf("order-of-magnitude collapse missing: %.1f vs %.1f", large, small)
	}
	if agg < 5*small {
		t.Errorf("aggregation (%.1f) should far exceed per-file (%.1f)", agg, small)
	}
}

func TestRecallOrderingShape(t *testing.T) {
	r := recallOrderingWith(recallParams{Files: 120, Size: 200e6})
	if r.Metrics["speedup"] <= 1 {
		t.Errorf("ordered recall speedup = %.2f, want > 1", r.Metrics["speedup"])
	}
	if r.Metrics["ordered_verifies"] >= r.Metrics["naive_verifies"] {
		t.Errorf("verifies: ordered %.0f vs naive %.0f", r.Metrics["ordered_verifies"], r.Metrics["naive_verifies"])
	}
}

func TestLargeFileSweepShape(t *testing.T) {
	r := largeFileSweepWith(1, 20e9, []int{1, 4, 16})
	if r.Metrics["mbs_w4"] <= r.Metrics["mbs_w1"] {
		t.Errorf("4 workers (%.0f) not faster than 1 (%.0f)", r.Metrics["mbs_w4"], r.Metrics["mbs_w1"])
	}
}

func TestVeryLargeShape(t *testing.T) {
	r := veryLargeNtoNWith(1, 150e9)
	if r.Metrics["fuse_mbs"] <= 0 || r.Metrics["nto1_mbs"] <= 0 {
		t.Errorf("metrics = %+v", r.Metrics)
	}
}

func TestRestartShape(t *testing.T) {
	r := restartableTransferWith(1, 20e9, 2e9, 4)
	if r.Metrics["content_ok"] != 1 {
		t.Error("restart did not verify content")
	}
	if r.Metrics["resume_skipped"] == 0 {
		t.Error("no chunks skipped on resume")
	}
	if r.Metrics["resume_skipped"]+r.Metrics["resume_copied"] != 10 {
		t.Errorf("chunk accounting off: %+v", r.Metrics)
	}
}

func TestSyncDeleteShape(t *testing.T) {
	r := syncDeleteVsReconcileWith(1, []int{500, 5000}, 5)
	if r.Metrics["ratio_pop5000"] <= r.Metrics["ratio_pop500"] {
		t.Errorf("reconcile/sync ratio should grow with population: %+v", r.Metrics)
	}
	if r.Metrics["ratio_pop5000"] < 5 {
		t.Errorf("ratio at 5000 = %.1f, want > 5", r.Metrics["ratio_pop5000"])
	}
}

func TestMigratorBalanceShape(t *testing.T) {
	r := migratorBalanceWith(1, 4, 40)
	if r.Metrics["speedup"] <= 1 {
		t.Errorf("balanced speedup = %.2f, want > 1", r.Metrics["speedup"])
	}
}

func TestInodeScanShape(t *testing.T) {
	r := inodeScanWith(1, 50_000)
	// Calibration: 600µs/inode -> 50k inodes in 30s.
	if r.Metrics["seconds"] < 25 || r.Metrics["seconds"] > 40 {
		t.Errorf("scan took %.1fs, want ~30s for 50k inodes", r.Metrics["seconds"])
	}
}

func TestScalingGapShape(t *testing.T) {
	r := scalingGapWith(1, []int{1, 4})
	if r.Metrics["mbs_n4"] <= r.Metrics["mbs_n1"] {
		t.Errorf("4 nodes (%.0f) not faster than 1 (%.0f)", r.Metrics["mbs_n4"], r.Metrics["mbs_n1"])
	}
	if r.Metrics["serial_mbs"] > r.Metrics["mbs_n1"] {
		t.Errorf("serial baseline (%.0f) beats 1-node parallel (%.0f)", r.Metrics["serial_mbs"], r.Metrics["mbs_n1"])
	}
}

func TestRunByName(t *testing.T) {
	if _, err := Run("nope", 1); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Run(nope) = %v, want ErrUnknownExperiment", err)
	}
	reps, err := Run("scan", 1)
	if err != nil || len(reps) != 1 {
		t.Errorf("Run(scan) = %d reports, %v", len(reps), err)
	}

	// The registry itself, without executing anything: names are unique,
	// "all" is last, every other name is a table row, and the four
	// figure names share the campaign's runner.
	names := Names()
	if names[len(names)-1] != "all" {
		t.Errorf("last name = %q, want all", names[len(names)-1])
	}
	rows := make(map[string]experiment)
	for _, e := range table {
		rows[e.name] = e
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("name %q listed twice", n)
		}
		seen[n] = true
		if _, ok := rows[n]; !ok && n != "all" {
			t.Errorf("name %q resolves to no table row", n)
		}
	}
	campaign := reflect.ValueOf(rows["campaign"].run).Pointer()
	for _, n := range []string{"fig8", "fig9", "fig10", "fig11"} {
		if reflect.ValueOf(rows[n].run).Pointer() != campaign {
			t.Errorf("%s does not resolve to the campaign runner", n)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{Name: "x", Title: "t", Body: "b\n", Notes: []string{"n"}}
	s := r.String()
	for _, want := range []string{"x", "t", "b", "n"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %q", want, s)
		}
	}
}

func TestCampaignGeneratorIntegration(t *testing.T) {
	jobs := workload.Generate(workload.CampaignConfig{Jobs: 5, Seed: 2, MaxSimFiles: 100})
	if len(jobs) != 5 {
		t.Fatalf("jobs = %d", len(jobs))
	}
}
