package experiments

import (
	"testing"

	"repro/internal/tsm"
)

// TestIntegrityStudyInvariants is the acceptance check for E18: with
// media bit rot and in-flight link corruption injected, every corrupted
// object is either repaired from the copy pool or surfaced as a typed
// IntegrityError — zero silently wrong bytes reach a reader — and each
// detection span cites the provoking corruption fault's event ID.
// integrityStudy panics on any violated invariant; the assertions here
// pin the headline numbers so a silent weakening of the drill (fewer
// injections, no scrub pass) also fails.
func TestIntegrityStudyInvariants(t *testing.T) {
	r := integrityStudy(7)

	if r.Metrics["rot_files"] != 3 || r.Metrics["taints_armed"] != 2 {
		t.Errorf("drill injected %v rot files and %v taints, want 3 and 2",
			r.Metrics["rot_files"], r.Metrics["taints_armed"])
	}
	if r.Metrics["detected"] != 5 || r.Metrics["detection_spans"] != 5 {
		t.Errorf("detected %v corruptions across %v spans, want 5 and 5",
			r.Metrics["detected"], r.Metrics["detection_spans"])
	}
	if r.Metrics["repaired"] != 3 || r.Metrics["unrepairable"] != 0 {
		t.Errorf("repaired %v, unrepairable %v, want 3 and 0",
			r.Metrics["repaired"], r.Metrics["unrepairable"])
	}
	if r.Metrics["roundtrip_mismatched"] != 0 || r.Metrics["roundtrip_matched"] == 0 {
		t.Errorf("round trip matched %v, mismatched %v — wrong bytes reached a reader",
			r.Metrics["roundtrip_matched"], r.Metrics["roundtrip_mismatched"])
	}
	if r.Metrics["quarantined_volumes"] == 0 {
		t.Error("media rot quarantined no volume")
	}
	// The concurrent scrub contends for the same drive pool as the
	// migration. The sign of the tax can swing either way per seed
	// (quarantining partly-filled volumes reshuffles volume selection),
	// but neither run may collapse.
	if tax := r.Metrics["scrub_tax"]; tax > 0.5 || tax < -0.5 {
		t.Errorf("scrub tax %v, want bounded contention in [-0.5, 0.5]", tax)
	}
	if r.Metrics["migrate_mbs_clean"] <= 0 || r.Metrics["migrate_mbs_scrubbed"] <= 0 {
		t.Errorf("migrate rates clean %v / scrubbed %v, want both positive",
			r.Metrics["migrate_mbs_clean"], r.Metrics["migrate_mbs_scrubbed"])
	}
	if passes, _ := r.Detail.([]tsm.ScrubReport); len(passes) != 1 || passes[0].ObjectsVerified == 0 {
		t.Errorf("scrub reports %+v, want one pass with verified objects", r.Detail)
	}
}
