package experiments

import "testing"

// TestDRStudyInvariants is the acceptance check for E20: a whole-site
// kill mid-campaign ends with every recall of the dead site's data
// served from a replica, the skipped campaign share requeued, the
// catch-up backlog drained within its bound, and no file lost or
// double-replicated. DRStudy panics on any violated invariant, so the
// test mostly confirms the drill ran at full scale and the report
// carries the metrics CI archives.
func TestDRStudyInvariants(t *testing.T) {
	r := DRStudy(11)
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
		t.Error("DR report missing its flight dump or telemetry snapshot")
	}
}
