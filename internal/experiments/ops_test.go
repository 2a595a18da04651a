package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testOpsParams shrinks E22 to test scale: smaller waves, a faster
// pace, and a detector window matched to the smaller files.
func testOpsParams() opsParams {
	return opsParams{
		Drives:        8,
		Cartridges:    64,
		WaveFiles:     16,
		FileBytes:     250e6,
		FaultWave:     3,
		DegradeTo:     0.05,
		RecoveryWaves: 4,
		MaxWaves:      16,
		Pace:          400,
		ScrapeEvery:   10 * time.Millisecond,
		MinXfer:       10,
		RateFraction:  0.25,
		ScrubStart:    6 * time.Hour,
		ScrubTighten:  20 * time.Minute,
		Addr:          "127.0.0.1:0",
	}
}

// TestOpsDrill runs the whole drill at test scale. opsDrillWith panics on
// any violated invariant (no drain, weak recovery, scrape/snapshot
// drift, dirty audit), so surviving the call is most of the test; the
// assertions below pin the report shape the tooling depends on.
func TestOpsDrill(t *testing.T) {
	r := opsDrillWith(7, testOpsParams())

	ops, ok := r.Detail.(*OpsReport)
	if r.Name != "ops" || !ok {
		t.Fatalf("report: name %q, detail %T", r.Name, r.Detail)
	}
	m := r.Metrics
	if m["drain_wave"] < m["fault_wave"] {
		t.Fatalf("drained at wave %v before the fault at wave %v", m["drain_wave"], m["fault_wave"])
	}
	if m["recovery_ratio"] < 0.8 {
		t.Fatalf("recovery ratio %.2f", m["recovery_ratio"])
	}
	if m["contaminated_min_mbs"] > 0.6*m["baseline_mbs"] {
		t.Fatalf("fault did not dent throughput: min %.1f vs baseline %.1f",
			m["contaminated_min_mbs"], m["baseline_mbs"])
	}
	if len(ops.Actions) != 3 {
		t.Fatalf("runbook actions: %+v", ops.Actions)
	}
	if got := ops.Actions[0]; got.Action != "drain-drive" || got.Target != ops.SlowDrive {
		t.Fatalf("first action %+v, want drain of %s", got, ops.SlowDrive)
	}
	if m["scrape_matches"] != 1 || m["audit_clean"] != 1 {
		t.Fatalf("scrape match %v, audit clean %v", m["scrape_matches"], m["audit_clean"])
	}
	if len(ops.ScrubPasses) == 0 {
		t.Fatal("no scrub pass in the report detail")
	}

	// The final scrape the report carries is a valid exposition, and the
	// report JSON round-trips without the scrape body embedded.
	if _, err := obs.ValidateExposition(strings.NewReader(ops.FinalScrape)); err != nil {
		t.Fatalf("final scrape invalid: %v", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "archsim_virtual_seconds") {
		t.Fatal("ops report JSON embeds the raw scrape; FinalScrape, Telemetry and Flight must be json:\"-\"")
	}

	// Phase accounting: every phase the summary derives from is present.
	seen := map[string]int{}
	for _, w := range ops.Waves {
		seen[w.Phase]++
	}
	for _, ph := range []string{"warmup", "baseline", "contaminated", "recovery"} {
		if seen[ph] == 0 {
			t.Fatalf("no %s wave in %v", ph, seen)
		}
	}
}

// TestOpsRegistered pins the experiment's registration: runnable by
// name, but excluded from the deterministic "all" sweep (it depends on
// wall-clock pacing like "scale" does).
func TestOpsRegistered(t *testing.T) {
	found := false
	for _, n := range Names() {
		if n == "ops" {
			found = true
		}
	}
	if !found {
		t.Fatal(`Names() lacks "ops"`)
	}
}
