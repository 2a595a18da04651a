package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTenantStudyInvariants is the acceptance check for E21: a
// million-registered-user day of recall demand under the unified
// admission layer ends with strictly ordered per-class p99 waits, no
// starved tenant, the scavenger floor honored, and no throughput paid
// for the arbitration. TenantStudy panics on any violated invariant,
// so the test mostly confirms the study ran at contract scale and the
// report carries the metrics CI archives.
func TestTenantStudyInvariants(t *testing.T) {
	r := tenantStudy(11)
	m := r.Metrics

	if m["population"] < 1_000_000 {
		t.Errorf("population %v below the 1M contract", m["population"])
	}
	if m["requests"] == 0 || m["active_tenants"] == 0 {
		t.Errorf("empty demand: %v requests over %v active tenants", m["requests"], m["active_tenants"])
	}
	if m["top1pct_share"] < 0.5 {
		t.Errorf("top-1%% request share %.2f: the heavy tail went missing", m["top1pct_share"])
	}
	for _, c := range []string{"interactive", "batch", "scavenger"} {
		for _, k := range []string{"requests_" + c, "p50_" + c + "_s", "p99_" + c + "_s"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("report carries no %s metric", k)
			}
		}
	}
	if !(m["p99_interactive_s"] < m["p99_batch_s"] && m["p99_batch_s"] < m["p99_scavenger_s"]) {
		t.Errorf("p99 waits not strictly ordered across classes: %v / %v / %v",
			m["p99_interactive_s"], m["p99_batch_s"], m["p99_scavenger_s"])
	}
	if m["starvation_events"] != 0 {
		t.Errorf("%v starvation events, want 0", m["starvation_events"])
	}
	if m["scav_share_observed"] < 0.5*m["scav_share_configured"] {
		t.Errorf("observed scavenger share %.3f below half the configured %.2f",
			m["scav_share_observed"], m["scav_share_configured"])
	}
	if d := m["throughput_delta_pct"]; d < -5 || d > 5 {
		t.Errorf("throughput delta %.1f%% outside the 5%% band", d)
	}
	if j := m["fairness_batch_jain"]; j <= 0 || j > 1 {
		t.Errorf("Jain fairness %.3f outside (0, 1]", j)
	}
	if r.Telemetry == nil {
		t.Error("tenant report missing its telemetry snapshot")
	}

	// Same seed, same study: the marshalled report (quantiles included)
	// must be byte-identical across runs — the demand generator and the
	// scheduler are both deterministic.
	first, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(tenantStudy(11))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("repeated run diverged:\n  first %s\n  again %s", first, again)
	}
}
