package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simtime"
)

// attemptTimes runs one Backoff.Do on a fresh clock with an op that
// always fails retryably, and returns the virtual time of each attempt.
func attemptTimes(t *testing.T, b Backoff) []simtime.Duration {
	t.Helper()
	clock := simtime.NewClock()
	var at []simtime.Duration
	clock.Go(func() {
		err := b.Do(clock, func(attempt int) error {
			at = append(at, clock.Now())
			return errors.New("always fails")
		}, func(error) bool { return true })
		if err == nil {
			t.Error("op never succeeds; Do must return the last error")
		}
	})
	clock.RunFor()
	if len(at) != b.normalized().Attempts {
		t.Fatalf("ran %d attempts, want %d", len(at), b.normalized().Attempts)
	}
	return at
}

func TestJitterZeroKeepsLegacyDelays(t *testing.T) {
	at := attemptTimes(t, DefaultBackoff())
	want := []simtime.Duration{0, 2 * time.Second, 6 * time.Second, 14 * time.Second}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("attempt %d at %v, want %v (un-jittered delays must not move)", i+1, at[i], want[i])
		}
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	b := DefaultBackoff()
	b.Jitter = 0.5
	b.Seed = 42
	first := attemptTimes(t, b)
	for run := 0; run < 3; run++ {
		if got := attemptTimes(t, b); !equalTimes(got, first) {
			t.Fatalf("run %d produced %v, want %v (same seed must replay identically)", run, got, first)
		}
	}
	b.Seed = 43
	other := attemptTimes(t, b)
	if equalTimes(other, first) {
		t.Fatalf("seeds 42 and 43 produced identical schedules %v", first)
	}
	// Jittered delays only ever shrink: each attempt lands no later
	// than the un-jittered schedule and no earlier than (1-Jitter)
	// scales it.
	plain := attemptTimes(t, DefaultBackoff())
	for i := 1; i < len(plain); i++ {
		dj := first[i] - first[i-1]
		dp := plain[i] - plain[i-1]
		if dj > dp || dj < simtime.Duration(float64(dp)*(1-b.Jitter))-time.Millisecond {
			t.Fatalf("attempt %d jittered delay %v outside [%v, %v]", i+1, dj, simtime.Duration(float64(dp)*0.5), dp)
		}
	}
}

func equalTimes(a, b []simtime.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDefenseDisabledIsPassThrough(t *testing.T) {
	clock := simtime.NewClock()
	d := DefenseOf(clock)
	if d.on {
		t.Fatal("fresh defense must be inert")
	}
	if !d.AllowRetry("anything") {
		t.Fatal("disabled defense must always allow retries")
	}
	calls := 0
	clock.Go(func() {
		err := d.Do("tsm.session", DefaultBackoff(), func(attempt int) error {
			calls++
			return errors.New("boom")
		}, func(error) bool { return true })
		if err == nil || errors.Is(err, errRetryBudget) || errors.Is(err, errBreakerOpen) {
			t.Errorf("disabled Do returned %v, want the op's plain error", err)
		}
	})
	clock.RunFor()
	if calls != 4 {
		t.Fatalf("disabled Do made %d attempts, want the full backoff budget of 4", calls)
	}
	if d.state("tsm.session") != breakerClosed {
		t.Fatal("disabled defense must report closed breakers")
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	clock := simtime.NewClock()
	d := DefenseOf(clock)
	// Burst of 2 retry tokens, essentially no refill: a 4-attempt
	// backoff gets its first attempt free, two budgeted retries, then
	// the budget refuses the third retry.
	d.Enable(DefensePolicy{RetryRate: 1e-9, RetryBurst: 2})
	calls := 0
	var got error
	clock.Go(func() {
		got = d.Do("tsm.session", DefaultBackoff(), func(attempt int) error {
			calls++
			return errors.New("still failing")
		}, func(error) bool { return true })
	})
	clock.RunFor()
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3 (1 free + 2 budgeted)", calls)
	}
	if !errors.Is(got, errRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", got)
	}
}

func TestBreakerOpensFailsFastAndProbes(t *testing.T) {
	clock := simtime.NewClock()
	d := DefenseOf(clock)
	d.Enable(DefensePolicy{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	down := true
	oneTry := Backoff{Attempts: 1}
	try := func() error {
		return d.Do("dep", oneTry, func(int) error {
			if down {
				return errors.New("dep down")
			}
			return nil
		}, func(error) bool { return true })
	}
	var log []string
	clock.Go(func() {
		// Two failures trip the breaker (threshold 2)...
		for i := 0; i < 2; i++ {
			if err := try(); err == nil {
				t.Error("op should fail while down")
			}
		}
		if s := d.state("dep"); s != breakerOpen {
			t.Errorf("state after threshold failures = %v, want open", s)
		}
		// ...and the next call is rejected without reaching the op.
		if err := try(); !errors.Is(err, errBreakerOpen) {
			t.Errorf("call while open = %v, want ErrBreakerOpen", err)
		}
		log = append(log, "open")
		// The dependency heals; after the cooldown the half-open probe
		// discovers it and the breaker re-closes.
		down = false
		clock.Sleep(time.Minute + time.Second)
		if s := d.state("dep"); s != breakerHalfOpen {
			t.Errorf("state after cooldown = %v, want half-open", s)
		}
		if err := try(); err != nil {
			t.Errorf("half-open probe = %v, want success", err)
		}
		if s := d.state("dep"); s != breakerClosed {
			t.Errorf("state after good probe = %v, want closed", s)
		}
		log = append(log, "closed")
	})
	clock.RunFor()
	if len(log) != 2 {
		t.Fatalf("actor did not finish: %v", log)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := simtime.NewClock()
	d := DefenseOf(clock)
	d.Enable(DefensePolicy{BreakerThreshold: 1, BreakerCooldown: 30 * time.Second})
	oneTry := Backoff{Attempts: 1}
	fail := func() error {
		return d.Do("dep", oneTry, func(int) error { return errors.New("no") },
			func(error) bool { return true })
	}
	done := false
	clock.Go(func() {
		fail() // trips at threshold 1
		clock.Sleep(31 * time.Second)
		if err := fail(); errors.Is(err, errBreakerOpen) {
			t.Error("half-open must admit one probe")
		}
		if s := d.state("dep"); s != breakerOpen {
			t.Errorf("state after failed probe = %v, want open again", s)
		}
		done = true
	})
	clock.RunFor()
	if !done {
		t.Fatal("actor did not finish")
	}
}

// state reports the named target's breaker position. Targets are
// created on first use, so querying never perturbs existing state
// beyond instantiating a closed breaker.
func (d *Defense) state(name string) breakerState {
	if !d.on {
		return breakerClosed
	}
	return d.stateOf(d.target(name))
}
