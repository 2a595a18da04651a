package experiments

import (
	"strings"
	"testing"
)

// TestDRStudyInvariants is the acceptance check for E20: a whole-site
// kill mid-campaign ends with every recall of the dead site's data
// served from a replica, the skipped campaign share requeued, the
// catch-up backlog drained within its bound, and no file lost or
// double-replicated. DRStudy panics on any violated invariant, so the
// test mostly confirms the drill ran at full scale and the report
// carries the metrics CI archives.
func TestDRStudyInvariants(t *testing.T) {
	r := drStudy(11)
	m := r.Metrics

	if m["failover_served"] != 1 {
		t.Errorf("failover served fraction = %v, want 1 (100%% from replicas)", m["failover_served"])
	}
	if m["drained"] != 1 {
		t.Error("catch-up backlog not drained within the bound")
	}
	if m["lost_files"] != 0 || m["duplicate_replicas"] != 0 {
		t.Errorf("lost=%v duplicates=%v, want zero of each", m["lost_files"], m["duplicate_replicas"])
	}
	if m["skipped"] == 0 || m["requeued"] != m["skipped"] {
		t.Errorf("skipped=%v requeued=%v, want a nonzero skip fully requeued", m["skipped"], m["requeued"])
	}
	if m["failover_recalls"] == 0 {
		t.Error("no failover recalls exercised")
	}
	if m["catchup_seconds"] <= 0 || m["catchup_seconds"] > m["catchup_bound_seconds"] {
		t.Errorf("catch-up took %vs against a %vs bound", m["catchup_seconds"], m["catchup_bound_seconds"])
	}
	if r.Flight == nil || r.Telemetry == nil {
		t.Fatal("DR report missing its flight dump or telemetry snapshot")
	}

	// Each site's series carry site=<name>: the three 4-drive libraries
	// export 12 drive series, and the per-site live-object gauges add
	// up to the three servers' objects instead of the last one's.
	if got := len(r.Telemetry.Family("tape_drive_mounts_total")); got != 12 {
		t.Errorf("%d tape_drive_mounts_total series, want 12 (3 sites x 4 drives)", got)
	}
	// A drive: fault names one site's drive: each drive label carries
	// its site, so no two sites' series share one.
	for _, p := range r.Telemetry.Family("tape_drive_mounts_total") {
		if site := p.Label("site"); site == "" || !strings.HasPrefix(p.Label("drive"), site+"-") {
			t.Errorf("drive series %v: drive label does not name its site", p.Labels)
		}
	}
	live := r.Telemetry.Family("tsm_objects_live")
	sum := 0.0
	for _, p := range live {
		if p.Label("site") == "" {
			t.Errorf("tsm_objects_live series %v carries no site label", p.Labels)
		}
		sum += p.Value
	}
	if len(live) != 3 || sum != m["tape_objects"] {
		t.Errorf("tsm_objects_live: %d series summing to %v, want 3 summing to the servers' %v objects",
			len(live), sum, m["tape_objects"])
	}
}
