package experiments

import (
	"math/rand"
	"strings"
	"testing"
)

// testParams is E24 at test scale: the same 4-island federation over a
// 12-job slice of the campaign with small trees, so an A/B across
// worker counts stays inside a unit-test budget.
func testParams(seed int64) ParallelParams {
	p := ParallelParams{
		Seed: seed, Islands: 4, Workers: 2,
		Jobs: 12, MaxSimFiles: 2000,
	}
	p.defaults()
	return p
}

// TestParallelDeterminismAcrossWorkers is the engine's contract at the
// experiment layer: for randomized seeds, a contended (2 workers on 4
// islands) and a fully parallel (4) run produce byte-identical model
// output (per-job table + merged metrics exposition) to the
// single-threaded reference. Seed 7 is not in the grid:
// TestParallelRunReport's internal A/B already byte-compares it at
// workers 1 and 2, and its 70 TB job mix costs as much as the two
// seeds here together.
func TestParallelDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	seeds := []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
	for _, seed := range seeds {
		p := testParams(seed)
		ref := runParallel(p, buildParallelPlant(p), 1)
		want := ref.canonical()
		if !strings.Contains(want, "site-3") {
			t.Fatalf("seed %d: reference output missing site-3:\n%s", seed, want)
		}
		for _, workers := range []int{2, 4} {
			got := runParallel(p, buildParallelPlant(p), workers).canonical()
			if got != want {
				t.Errorf("seed %d: workers=%d output differs from single-threaded reference (%d vs %d bytes)",
					seed, workers, len(got), len(want))
			}
		}
	}
}

// TestParallelRunReport exercises the full ParallelRun plumbing —
// internal A/B, speedup measurement, report assembly — at test scale.
func TestParallelRunReport(t *testing.T) {
	p := ParallelParams{Seed: 7, Islands: 4, Workers: 2, Jobs: 12, MaxSimFiles: 2000}
	r, pr := ParallelRun(p)
	if r.Name != "parallel" || r.Detail != pr {
		t.Fatalf("report wiring: name=%q detail=%p pr=%p", r.Name, r.Detail, pr)
	}
	if !pr.Deterministic {
		t.Error("A/B ran but Deterministic=false")
	}
	if pr.Jobs != 12 || pr.Files <= 0 || pr.Bytes <= 0 {
		t.Errorf("totals: jobs=%d files=%d bytes=%d", pr.Jobs, pr.Files, pr.Bytes)
	}
	if len(pr.PerIsland) != 4 {
		t.Fatalf("per-island entries = %d", len(pr.PerIsland))
	}
	for _, is := range pr.PerIsland {
		if is.Jobs == 0 {
			t.Errorf("island %s got no jobs — partition imbalance", is.Name)
		}
	}
	if pr.ReplicaManifests != 12 {
		t.Errorf("replica manifests = %d, want one per job", pr.ReplicaManifests)
	}
	if pr.LagMeanSeconds <= 0 {
		t.Errorf("replication lag mean = %v, want > 0", pr.LagMeanSeconds)
	}
	for _, fam := range []string{"engine_island_advance_seconds", "engine_null_messages_total"} {
		if !strings.Contains(pr.EngineMetricsText, fam) {
			t.Errorf("engine metrics missing %s:\n%s", fam, pr.EngineMetricsText)
		}
	}
	if strings.Contains(r.Telemetry.Text(), "engine_") {
		t.Error("engine series leaked into the deterministic model snapshot")
	}
	if pr.Speedup <= 0 || pr.BaselineWallSeconds <= 0 {
		t.Errorf("baseline accounting: speedup=%v baseline=%vs", pr.Speedup, pr.BaselineWallSeconds)
	}
}

// TestParallelPartitionBalance checks the greedy partition spreads the
// paper campaign's heavy tail: no island may hold more than half the
// campaign's bytes.
func TestParallelPartitionBalance(t *testing.T) {
	p := ParallelParams{Seed: 7}
	p.defaults()
	plant := buildParallelPlant(p)
	var bytes [4]int64
	var total int64
	for i, s := range plant.sites {
		for _, chunk := range s.jobs {
			for _, j := range chunk {
				bytes[i] += j.TotalBytes
				total += j.TotalBytes
			}
		}
	}
	for i, b := range bytes {
		if b == 0 {
			t.Errorf("island %d got no bytes", i)
		}
		if 2*b > total {
			t.Errorf("island %d holds %d of %d bytes — partition too skewed", i, b, total)
		}
	}
}
