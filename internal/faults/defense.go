package faults

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// The overload-defense layer: one per-clock Defense shared by every
// retry loop in the stack (tsm drive failover, federation WAN
// replication, pftool requeue, experiment clients). It wraps the plain
// Backoff policy with the three mechanisms that stop a transient fault
// from turning into a metastable retry storm:
//
//   - per-target token-bucket retry budgets, so the aggregate retry
//     rate against a struggling dependency is bounded no matter how
//     many actors are failing at once;
//   - per-target circuit breakers with half-open probing, so once a
//     target is known-bad new work fails fast instead of queueing, and
//     a single probe (not a thundering herd) discovers repair;
//   - seeded deterministic jitter injected into every mediated backoff,
//     decorrelating the retry clocks of independent actors.
//
// Until Enable is called the Defense is inert: Do degrades to exactly
// Backoff.Do and AllowRetry always grants, so unconfigured simulations
// are byte-identical to builds without this file.

// Errors returned by the defense layer. Both wrap the underlying
// failure where one exists, so errors.Is sees through them.
var (
	// errRetryBudget means the per-target retry token bucket was empty
	// when a retry came due; the operation gives up with the last
	// attempt's error wrapped.
	errRetryBudget = errors.New("faults: retry budget exhausted")
	// errBreakerOpen means the target's circuit breaker rejected the
	// call before any attempt was made.
	errBreakerOpen = errors.New("faults: circuit breaker open")
)

// breakerState is a circuit breaker's position. The numeric values are
// exported as the breaker_state gauge.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal: calls flow
	breakerOpen                         // failing fast: calls rejected until cooldown
	breakerHalfOpen                     // probing: one call in, success re-closes
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// DefensePolicy configures the shared defenses. Zero fields take the
// documented defaults when Enable normalizes the policy.
type DefensePolicy struct {
	// RetryRate is the token-bucket refill rate, retries per second per
	// target. Zero disables budgeting (retries are never refused).
	RetryRate float64
	// RetryBurst is the bucket depth. Zero defaults to max(1, RetryRate).
	RetryBurst float64
	// BreakerThreshold is the consecutive-failure count that opens a
	// target's breaker. Zero defaults to 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// allowing a half-open probe. Zero defaults to 30s.
	BreakerCooldown time.Duration
	// Jitter, if non-zero, is applied to every mediated Backoff that
	// does not already set its own (see Backoff.Jitter).
	Jitter float64
	// Seed anchors the per-target jitter streams; each target derives a
	// decorrelated seed from it.
	Seed uint64
}

func (p DefensePolicy) normalized() DefensePolicy {
	if p.RetryBurst <= 0 {
		p.RetryBurst = math.Max(1, p.RetryRate)
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 30 * time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// target is the per-dependency defense state: one retry bucket and one
// breaker per target name.
type target struct {
	name      string
	tokens    float64          // retry bucket fill
	refillAt  simtime.Duration // last refill instant
	state     breakerState
	fails     int              // consecutive mediated failures while closed
	openUntil simtime.Duration // when an open breaker admits a probe
	probing   bool             // half-open probe in flight
	seq       uint64           // per-target jitter decorrelation counter

	exhausted *telemetry.Counter // retry_budget_exhausted_total
	rejected  *telemetry.Counter // breaker_rejected_total
}

// Defense is the per-clock singleton; obtain it with DefenseOf.
type Defense struct {
	clock   *simtime.Clock
	pol     DefensePolicy
	on      bool
	targets map[string]*target
}

// defenseSlot is the clock slot DefenseOf resolves; the lookup sits on
// every defended call path, so it must stay allocation-free.
var defenseSlot = simtime.NewSlot()

func newDefense(clock *simtime.Clock) interface{} {
	return &Defense{clock: clock, targets: make(map[string]*target)}
}

// DefenseOf returns the clock's Defense, creating an inert one on
// first use. The lookup is allocation-free and lock-free after the
// first call (one atomic load).
func DefenseOf(clock *simtime.Clock) *Defense {
	return clock.SlotOf(defenseSlot, newDefense).(*Defense)
}

// Enable arms the defenses with the given policy. Before Enable, Do
// and AllowRetry are transparent pass-throughs.
func (d *Defense) Enable(p DefensePolicy) {
	d.pol = p.normalized()
	d.on = true
}

func (d *Defense) target(name string) *target {
	t, ok := d.targets[name]
	if !ok {
		tel := telemetry.Of(d.clock)
		t = &target{
			name:      name,
			tokens:    d.pol.RetryBurst,
			refillAt:  d.clock.Now(),
			exhausted: tel.Counter("retry_budget_exhausted_total", "target", name),
			rejected:  tel.Counter("breaker_rejected_total", "target", name),
		}
		tel.GaugeFunc("breaker_state", func() float64 { return float64(d.stateOf(t)) }, "target", name)
		d.targets[name] = t
	}
	return t
}

// stateOf reports the breaker position as of now: an open breaker past
// its cooldown reads as half-open even before a probe arrives.
func (d *Defense) stateOf(t *target) breakerState {
	if t.state == breakerOpen && d.clock.Now() >= t.openUntil {
		return breakerHalfOpen
	}
	return t.state
}

// AllowRetry consumes one retry token for the target, reporting
// whether the retry may proceed. Always true while the defenses are
// disabled or the policy sets no RetryRate.
func (d *Defense) AllowRetry(name string) bool {
	if !d.on || d.pol.RetryRate <= 0 {
		return true
	}
	t := d.target(name)
	now := d.clock.Now()
	if now > t.refillAt {
		t.tokens = math.Min(d.pol.RetryBurst, t.tokens+d.pol.RetryRate*(now-t.refillAt).Seconds())
		t.refillAt = now
	}
	if t.tokens < 1 {
		t.exhausted.Inc()
		return false
	}
	t.tokens--
	return true
}

// admit asks the breaker whether a new mediated call may start.
func (d *Defense) admit(t *target) error {
	switch d.stateOf(t) {
	case breakerOpen:
		t.rejected.Inc()
		return fmt.Errorf("%w: %s", errBreakerOpen, t.name)
	case breakerHalfOpen:
		if t.probing {
			t.rejected.Inc()
			return fmt.Errorf("%w: %s (probe in flight)", errBreakerOpen, t.name)
		}
		t.state = breakerHalfOpen
		t.probing = true
	}
	return nil
}

// settle records a mediated call's outcome with the breaker.
func (d *Defense) settle(t *target, failed bool) {
	if !failed {
		t.fails = 0
		t.state = breakerClosed
		t.probing = false
		return
	}
	t.fails++
	if t.state == breakerHalfOpen || t.fails >= d.pol.BreakerThreshold {
		t.state = breakerOpen
		t.probing = false
		t.openUntil = d.clock.Now() + d.pol.BreakerCooldown
		t.fails = 0
	}
}

// Do runs op under the target's defenses: the breaker may reject the
// call outright (ErrBreakerOpen), each retry charges the target's
// budget (giving up with ErrRetryBudget when dry), and the policy's
// jitter decorrelates the backoff delays. While the defenses are
// disabled this is exactly b.Do(clock, op, retryable).
func (d *Defense) Do(name string, b Backoff, op func(attempt int) error, retryable func(error) bool) error {
	if !d.on {
		return b.Do(d.clock, op, retryable)
	}
	t := d.target(name)
	if err := d.admit(t); err != nil {
		return err
	}
	if b.Jitter == 0 && d.pol.Jitter > 0 {
		t.seq++
		b.Jitter = d.pol.Jitter
		b.Seed = splitmix64(d.pol.Seed ^ hashString(name) ^ t.seq)
	}
	err := b.do(d.clock, op, retryable, func(lastErr error) error {
		if !d.AllowRetry(name) {
			return fmt.Errorf("%w: %s: %w", errRetryBudget, name, lastErr)
		}
		return nil
	})
	failed := err != nil &&
		(errors.Is(err, errRetryBudget) || retryable == nil || retryable(err))
	d.settle(t, failed)
	return err
}

// hashString is FNV-1a, used to fold target names into jitter seeds.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
