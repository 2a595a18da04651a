package experiments

import "testing"

// TestStormStudyInvariants is the acceptance check for E23: the same
// overloaded outage day replays against the naive stack and the
// defended stack. StormStudy panics on any violated invariant — the
// baseline must stay metastable (goodput under half of pre-fault for
// ten minutes AFTER the repair), the defended stack must re-converge
// to >=95% of pre-fault within five minutes, shed only batch work,
// and account for every admission — so the test mostly confirms the
// study ran and the report carries the summary CI archives.
func TestStormStudyInvariants(t *testing.T) {
	r := stormStudy(7)

	rep, ok := r.Detail.(*stormReport)
	if !ok {
		t.Fatalf("storm report detail is %T, want *StormReport", r.Detail)
	}
	m := r.Metrics
	if m["requests"] == 0 || len(rep.Cohorts) == 0 {
		t.Fatalf("empty demand: %v requests, %d cohorts", m["requests"], len(rep.Cohorts))
	}
	if m["baseline_attempts"] <= m["requests"] {
		t.Errorf("baseline attempts %v did not amplify %v requests", m["baseline_attempts"], m["requests"])
	}
	if m["defended_attempts"] >= m["baseline_attempts"] {
		t.Errorf("defended attempts %v not below the naive %v — the budget bought nothing",
			m["defended_attempts"], m["baseline_attempts"])
	}
	if m["baseline_post_fault_mean_goodput"] >= 0.5*m["pre_fault_goodput"] {
		t.Errorf("baseline post-fault goodput %.2f vs pre-fault %.2f: no collapse",
			m["baseline_post_fault_mean_goodput"], m["pre_fault_goodput"])
	}
	if m["defended_recovery_minutes"] > 5 {
		t.Errorf("defended recovery took %v minutes, want <= 5", m["defended_recovery_minutes"])
	}
	if m["interactive_shed_total"] != 0 {
		t.Errorf("%v interactive admissions shed", m["interactive_shed_total"])
	}
	if m["batch_shed_total"] == 0 || m["deadline_exceeded_total"] == 0 ||
		m["retry_budget_exhausted_total"] == 0 || m["breaker_rejected_total"] == 0 {
		t.Errorf("a defense primitive never fired: %+v", m)
	}
	if r.Telemetry == nil {
		t.Fatal("no telemetry snapshot attached")
	}
	for _, fam := range []string{"sched_shed_total", "deadline_exceeded_total",
		"retry_budget_exhausted_total", "breaker_rejected_total", "breaker_state"} {
		if len(r.Telemetry.Family(fam)) == 0 {
			t.Errorf("telemetry family %s missing from the defended snapshot", fam)
		}
	}
}
