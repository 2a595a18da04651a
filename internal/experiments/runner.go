package experiments

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// crashFlightSink receives the flight-recorder dump an experiment
// actor hands over just before it panics on a violated invariant, so
// the process can still persist the evidence. Single simulation actor
// at a time — no locking, matching the rest of the harness.
var crashFlightSink func(*telemetry.FlightDump)

// SetCrashFlightSink installs a callback invoked synchronously with
// the flight dump when an experiment aborts on an invariant violation.
// It runs inside the panicking actor, before the panic unwinds through
// clock.Run, so the sink must do its own persistence (cmd/archsim writes
// the file in it).
func SetCrashFlightSink(fn func(*telemetry.FlightDump)) { crashFlightSink = fn }

func stashCrashFlight(d *telemetry.FlightDump) {
	if crashFlightSink != nil {
		crashFlightSink(d)
	}
}

// plantRun is what one finished plant hands back: the clock's final
// virtual time, and the registry snapshot and flight dump of the
// drained clock (background flows that outlive the body have settled).
type plantRun struct {
	end    simtime.Duration
	snap   *telemetry.Snapshot
	flight *telemetry.FlightDump
}

// failf aborts the experiment on a violated invariant. The run's flight
// dump goes to the crash sink first, so the evidence survives the panic.
func (r plantRun) failf(format string, args ...interface{}) {
	stashCrashFlight(r.flight)
	panic(fmt.Sprintf(format, args...))
}

// runClock owns one plant's lifecycle. build assembles the plant on a
// fresh clock, outside actor context, and returns the body to run as
// the root actor; runClock drives the clock until it drains. An actor
// panic unwinds through clock.Run into the caller and nothing up there
// recovers it, so the flight ring is handed to the crash sink here,
// synchronously, before the panic continues — the crash evidence is the
// whole point of the recorder.
func runClock(build func(clock *simtime.Clock) (body func())) plantRun {
	clock := simtime.NewClock()
	body := build(clock)
	tel := telemetry.Of(clock)
	clock.Go(func() {
		defer func() {
			if p := recover(); p != nil {
				stashCrashFlight(tel.FlightDump())
				panic(p)
			}
		}()
		body()
	})
	end := clock.RunFor()
	return plantRun{end: end, snap: tel.Snapshot(), flight: tel.FlightDump()}
}

// runSystem runs body as the root actor of a fresh archive.System;
// tweak (nil for the paper's deployment) edits the default options
// before the plant is built.
func runSystem(tweak func(*archive.Options), body func(sys *archive.System)) plantRun {
	return runClock(func(clock *simtime.Clock) func() {
		sys := newSystem(clock, tweak)
		return func() { body(sys) }
	})
}

// runFaulted is runSystem with a fault registry installed on the plant
// before the body starts.
func runFaulted(tweak func(*archive.Options), body func(sys *archive.System, reg *faults.Registry)) plantRun {
	return runClock(func(clock *simtime.Clock) func() {
		sys := newSystem(clock, tweak)
		reg := faults.New(clock)
		sys.InstallFaults(reg)
		return func() { body(sys, reg) }
	})
}

func newSystem(clock *simtime.Clock, tweak func(*archive.Options)) *archive.System {
	opts := archive.DefaultOptions()
	if tweak != nil {
		tweak(&opts)
	}
	return archive.New(clock, opts)
}
