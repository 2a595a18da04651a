package tsm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// The overload-defense paths: retry budgets cutting a failover loop
// short, breakers rejecting sessions against a known-bad server, and
// deadlines abandoning work nobody waits for. The happy
// success-after-retry path lives in failure_test.go.

// session reads one of the defense layer's series for TSM sessions:
// the breaker_state gauge (0 closed, 1 open) or a counter.
func (e *env) session(name string) float64 {
	return telemetry.Of(e.clock).Snapshot().Value(name, "target", "tsm.session")
}

func TestStoreRetryBudgetExhaustionSurfaces(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	faults.DefenseOf(e.clock).Enable(faults.DefensePolicy{
		RetryRate: 1e-9, RetryBurst: 1, // one budgeted retry, then dry
		BreakerThreshold: 100, // keep the breaker out of this test
	})
	e.run(t, func() {
		e.lib.Drive(0).FailNextOps(3)
		e.lib.Drive(1).FailNextOps(3)
		_, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err == nil || e.session("retry_budget_exhausted_total") != 1 {
			t.Fatalf("err = %v with %v budget exhaustions, want the budget to cut the store", err, e.session("retry_budget_exhausted_total"))
		}
		if n := e.count("tsm_retries_total"); n != 1 {
			t.Errorf("Retries = %d, want exactly the 1 budgeted retry", n)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("budget-cut store recorded an object")
		}
	})
}

func TestRecallFailoverBreakerOpensAndRecovers(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	faults.DefenseOf(e.clock).Enable(faults.DefensePolicy{
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		// Exhaust the failover budget once: every attempt faults, the
		// mediated session fails, the breaker trips.
		e.lib.Drive(0).FailNextOps(100)
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err == nil {
			t.Fatal("recall should fail with the drive broken")
		}
		if s := e.session("breaker_state"); s != 1 {
			t.Errorf("breaker = %v after the failed session, want 1 (open)", s)
		}
		e.lib.Drive(0).FailNextOps(0) // repaired...
		// ...but the breaker still rejects, fast, without touching tape.
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err == nil || e.session("breaker_rejected_total") != 1 {
			t.Fatalf("err while open = %v with %v rejections, want the breaker to reject", err, e.session("breaker_rejected_total"))
		}
		// After the cooldown the half-open probe succeeds and service
		// resumes.
		e.clock.Sleep(time.Minute + time.Second)
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err != nil {
			t.Fatalf("recall after cooldown = %v, want success", err)
		}
		if s := e.session("breaker_state"); s != 0 {
			t.Errorf("breaker = %v after good probe, want 0 (closed)", s)
		}
	})
}

func TestRecallDeadlineExceededDuringOutage(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		e.srv.SetDown(true)
		start := e.clock.Now()
		_, err = e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID,
			QoS: sched.QoS{Deadline: start + 30*time.Second}})
		if !errors.Is(err, sched.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
		}
		if got := e.clock.Now() - start; got != 30*time.Second {
			t.Errorf("gave up after %v, want exactly the 30s deadline", got)
		}
		e.srv.SetDown(false)
		// Without a deadline the same recall blocks through the outage
		// and succeeds — the legacy behavior is untouched.
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err != nil {
			t.Fatalf("deadline-free recall after repair = %v", err)
		}
	})
}

func TestRecallDeadlineExpiresInAdmissionQueue(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	sch := sched.Of(e.clock)
	var doomedErr error
	var doomedAt simDuration
	e.clock.Go(func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err != nil {
			t.Error(err)
			return
		}
		// Limit the session station, then hold its only slot with a
		// long store while a deadlined recall queues behind it.
		sch.SetLimit(sched.StationSession, 1)
		e.clock.Go(func() {
			if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/big", Bytes: 40e9}); err != nil {
				t.Error(err)
			}
		})
		e.clock.Sleep(2 * time.Second)
		// This recall's deadline passes while it waits for a session
		// slot: the scheduler cancels it at the deadline instead of
		// granting a drive to a caller that stopped waiting.
		start := e.clock.Now()
		_, rerr := e.srv.Recall(RecallRequest{Client: "c3", ObjectID: obj.ID,
			QoS: sched.QoS{Deadline: start + 20*time.Second}})
		doomedErr = rerr
		doomedAt = simDuration(e.clock.Now() - start)
	})
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(doomedErr, sched.ErrDeadlineExceeded) {
		t.Fatalf("queued recall got %v, want ErrDeadlineExceeded", doomedErr)
	}
	if doomedAt != simDuration(20*time.Second) {
		t.Errorf("cancelled %v after submit, want 20s (its deadline)", time.Duration(doomedAt))
	}
}
