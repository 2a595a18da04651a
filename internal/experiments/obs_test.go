package experiments

import "testing"

// TestObservabilitySelfCheck is the acceptance check for the telemetry
// layer: the experiment itself panics if an injected mover crash leaves
// no aborted span citing the fault event; the assertions here pin the
// report shape on top of that.
func TestObservabilitySelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check replays a campaign and the chaos drill")
	}
	r := observabilitySelfCheck(7)

	if r.Metrics["registry_mbs"] <= 0 {
		t.Error("registry rate is zero")
	}
	if r.Metrics["mover_crashes"] < 1 {
		t.Error("chaos drill injected no mover crash")
	}
	if r.Metrics["aborted_spans"] < r.Metrics["mover_crashes"] {
		t.Errorf("%v aborted spans for %v mover crashes",
			r.Metrics["aborted_spans"], r.Metrics["mover_crashes"])
	}
	if r.Telemetry == nil || r.Flight == nil {
		t.Fatal("report carries no telemetry snapshot or flight dump")
	}
	if len(r.Flight.Spans) == 0 || len(r.Flight.Events) == 0 {
		t.Error("flight dump is empty")
	}
	// Every aborted span in the dump must carry a cause line.
	for _, sp := range r.Flight.Aborted() {
		if sp.Cause == "" {
			t.Errorf("aborted span %d (%s) has no cause", sp.ID, sp.Name)
		}
	}
}
