package experiments

import "testing"

// TestChaosStudyInvariants is the acceptance check for the failure
// drill: a campaign with two permanent drive failures and a mover
// crash completes with every file archived exactly once (the
// shadow/TSM audit is clean and the object count matches), and
// throughput degrades in proportion to the lost drive capacity rather
// than collapsing.
func TestChaosStudyInvariants(t *testing.T) {
	r := chaosStudy(7)

	if r.Metrics["audit_clean"] != 1 {
		t.Error("chaos audit not clean")
	}
	if r.Metrics["objects"] != r.Metrics["files"] {
		t.Errorf("exactly-once violated: %v TSM objects for %v files",
			r.Metrics["objects"], r.Metrics["files"])
	}
	if r.Metrics["files"] == 0 {
		t.Error("no files archived")
	}
	if r.Metrics["ranks_died"] == 0 {
		t.Error("the mover crash killed no PFTool ranks")
	}
	if r.Metrics["fault_events"] < 5 {
		t.Errorf("fault schedule applied %v events, want the full drill", r.Metrics["fault_events"])
	}

	// 2 of 8 drives dead caps tape bandwidth at 75% of clean; the
	// observed ratio should sit near that floor — degraded but
	// proportional, not collapsed.
	ratio := r.Metrics["migrate_rate_ratio"]
	if ratio >= 1.0 || ratio < 0.5 {
		t.Errorf("migrate rate ratio %v, want proportional degradation in [0.5, 1.0)", ratio)
	}
	// The mover crash and trunk degradation slow pfcp but the run must
	// still make real progress.
	if cr := r.Metrics["copy_rate_ratio"]; cr >= 1.0 || cr < 0.2 {
		t.Errorf("copy rate ratio %v, want degraded-but-alive in [0.2, 1.0)", cr)
	}
}
