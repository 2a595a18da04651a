package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TestRunnerCrashPath pins the crash-flight protocol the runner owns: a
// body that panics hands the flight ring — holding what the run had
// recorded so far — to the crash sink exactly once, and the panic still
// reaches the caller carrying its original value.
func TestRunnerCrashPath(t *testing.T) {
	var dumps []*telemetry.FlightDump
	SetCrashFlightSink(func(d *telemetry.FlightDump) { dumps = append(dumps, d) })
	defer SetCrashFlightSink(nil)

	var got interface{}
	func() {
		defer func() { got = recover() }()
		runClock(func(clock *simtime.Clock) func() {
			return func() {
				telemetry.Of(clock).Event("about-to-fail")
				clock.Sleep(simtime.Duration(1))
				panic("invariant violated")
			}
		})
	}()

	if got == nil || !strings.HasPrefix(fmt.Sprint(got), "invariant violated") {
		t.Errorf("caller recovered %v, want the body's panic value", got)
	}
	if len(dumps) != 1 {
		t.Fatalf("crash sink called %d times, want exactly once", len(dumps))
	}
	found := false
	for _, ev := range dumps[0].Events {
		found = found || ev.Name == "about-to-fail"
	}
	if !found {
		t.Errorf("crash dump misses the event recorded before the panic: %+v", dumps[0].Events)
	}

	// failf is the post-run half of the protocol: same sink, same dump.
	dumps = nil
	run := runClock(func(clock *simtime.Clock) func() { return func() {} })
	func() {
		defer func() { got = recover() }()
		run.failf("lost %d files", 3)
	}()
	if got != "lost 3 files" || len(dumps) != 1 || dumps[0] != run.flight {
		t.Errorf("failf: recovered %v, sink saw %d dumps", got, len(dumps))
	}
}
