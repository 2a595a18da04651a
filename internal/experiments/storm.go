package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/tape"
	"repro/internal/telemetry"
	"repro/internal/tsm"
)

// E23 deployment: the E21 recall plant (four LTO-4 drives, four
// colocated data volumes, 256 MB objects) pushed past its knee. A
// sequential 256 MB recall costs ~7s of drive time here, so the four
// drives are good for ~0.57 recalls/s; interactive demand runs at
// ~0.6x that and the batch wave lifts the total to ~1.45x.
const (
	stormDrives      = 4
	stormObjects     = 160
	stormObjectBytes = int64(256e6)

	// Client behavior: a recall that has not answered within the
	// patience window is abandoned (the user gave up); a naive client
	// re-issues an unanswered request every retry interval until then.
	// The retry interval sits far above the healthy-plant queue waits,
	// so amplification only kicks in once something is actually wrong.
	stormPatience      = 90 * time.Second
	stormNaiveRetry    = 40 * time.Second // baseline: fixed, synchronized
	stormAttemptBudget = 30 * time.Second // defended: per-attempt deadline

	// Timeline: interactive warmup, a two-minute total TSM outage, and
	// a batch wave that starts with the outage and never lets up — the
	// sustained ~1.45x overload the brownout defense must shed.
	stormOutageAt    = 12 * time.Minute
	stormOutageLen   = 2 * time.Minute
	stormArrivalsEnd = 29 * time.Minute

	stormMeanInteractive = 4500 * time.Millisecond // Poisson, ~0.4x capacity
	stormMeanBatch       = 1600 * time.Millisecond // Poisson from the outage on
)

// stormReq is one client request: a recall of object obj submitted at
// `at` under `class`.
type stormReq struct {
	at    simtime.Duration
	class sched.Class
	obj   int
}

// stormDemand generates the shared arrival stream both stacks replay:
// interactive recalls for the whole run, batch recalls from the
// outage start on.
func stormDemand(seed int64) []stormReq {
	rng := rand.New(rand.NewSource(seed))
	var reqs []stormReq
	pois := func(class sched.Class, from, to simtime.Duration, mean time.Duration) {
		t := from
		for {
			t += simtime.Duration(rng.ExpFloat64() * float64(mean))
			if t >= to {
				return
			}
			reqs = append(reqs, stormReq{at: t, class: class, obj: rng.Intn(stormObjects)})
		}
	}
	pois(sched.Interactive, 0, stormArrivalsEnd, stormMeanInteractive)
	pois(sched.Batch, stormOutageAt, stormArrivalsEnd, stormMeanBatch)
	return reqs
}

// stormOutcome is one replay of the storm day.
type stormOutcome struct {
	// Per arrival-minute interactive cohorts: how many arrived, how
	// many were answered within the patience window.
	cohortTotal  []int
	cohortServed []int
	attempts     int // recall attempts issued (retry amplification)
	snap         *telemetry.Snapshot
}

func (o stormOutcome) goodput(minute int) float64 {
	if minute < 0 || minute >= len(o.cohortTotal) || o.cohortTotal[minute] == 0 {
		return 1
	}
	return float64(o.cohortServed[minute]) / float64(o.cohortTotal[minute])
}

func (o stormOutcome) meanGoodput(from, to int) float64 {
	var sum float64
	n := 0
	for m := from; m < to; m++ {
		sum += o.goodput(m)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// stormRun replays the demand stream against one stack. defended=false
// is the E1–E22 path plus a naive client: pass-through admission, no
// deadlines, fixed synchronized re-issues of unanswered requests.
// defended=true turns the full overload stack on: the session station
// limited to the drive count, per-attempt deadlines, a batch shed
// watermark, and client retries under the shared jitter + retry-budget
// + breaker defense.
func stormRun(reqs []stormReq, seed int64, defended bool) stormOutcome {
	minutes := int(stormArrivalsEnd/time.Minute) + 1
	out := stormOutcome{
		cohortTotal:  make([]int, minutes),
		cohortServed: make([]int, minutes),
	}
	out.snap = runClock(func(clock *simtime.Clock) func() {
		lib := tape.NewLibrary(clock, stormDrives, 16, 2, tape.LTO4())
		srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
		sch := sched.Of(clock)
		reg := faults.New(clock)
		reg.OnApply(func(ev faults.Event) {
			if ev.Component == srv.Component() {
				srv.SetDown(ev.Kind == faults.KindFail)
			}
		})
		return func() {
			objs := make([]tsm.Object, 0, stormObjects)
			for i := 0; i < stormObjects; i++ {
				g := i % stormDrives
				obj, err := srv.Store(tsm.StoreRequest{
					Client: fmt.Sprintf("seed-%d", g),
					Path:   fmt.Sprintf("/pool%d/f%04d", g, i),
					Bytes:  stormObjectBytes,
					Group:  fmt.Sprintf("pool-%d", g),
				})
				if err != nil {
					panic(fmt.Sprintf("storm: seed store: %v", err))
				}
				objs = append(objs, obj)
			}

			defense := faults.DefenseOf(clock)
			if defended {
				sch.SetLimit(sched.StationSession, stormDrives)
				// The watermark must sit below the per-attempt deadline:
				// queued batch work is deadline-cancelled at 30s, so a higher
				// watermark would never see a longer class wait.
				sch.SetShedWatermark(sched.Batch, 20*time.Second)
				defense.Enable(faults.DefensePolicy{
					Jitter: 0.5, Seed: uint64(seed),
					RetryRate: 0.5, RetryBurst: 30,
					BreakerThreshold: 10, BreakerCooldown: 15 * time.Second,
				})
			}
			start := clock.Now()
			reg.Window(srv.Component(), start+stormOutageAt, stormOutageLen)

			wg := simtime.NewWaitGroup(clock)
			wg.Add(len(reqs))
			for _, r := range reqs {
				r := r
				clock.At(start+r.at, func() {
					defer wg.Done()
					id := objs[r.obj].ID
					if defended {
						out.attempts += stormDefendedClient(clock, srv, defense, r, id, &out)
					} else {
						out.attempts += stormNaiveClient(clock, srv, r, id, &out, wg)
					}
				})
			}
			wg.Wait()
		}
	}).snap
	return out
}

// stormNaiveClient is the pre-defense client: issue the recall, and if
// it has not answered after each fixed retry interval, issue ANOTHER
// copy of it — every attempt runs to completion whether or not anyone
// is still waiting, which is exactly the wasted work that makes the
// storm metastable.
func stormNaiveClient(clock *simtime.Clock, srv *tsm.Server, r stormReq, id uint64,
	out *stormOutcome, wg *simtime.WaitGroup) int {
	submit := clock.Now()
	var doneAt simtime.Duration = -1
	attempts := 0
	issue := func() {
		attempts++
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			if _, err := srv.Recall(tsm.RecallRequest{
				Client: "recall", ObjectID: id, QoS: sched.QoS{Class: r.class},
			}); err != nil {
				panic(fmt.Sprintf("storm: naive recall: %v", err))
			}
			if doneAt >= 0 {
				return // a duplicate attempt answering an answered request
			}
			doneAt = clock.Now()
			if r.class == sched.Interactive && doneAt-submit <= stormPatience {
				out.cohortServed[int(r.at/time.Minute)]++
			}
		})
	}
	if r.class == sched.Interactive {
		out.cohortTotal[int(r.at/time.Minute)]++
	}
	issue()
	// Synchronized re-issues at exact multiples of the retry interval —
	// no jitter, no budget, no backoff. The client stops caring at the
	// patience mark but the attempts it spawned keep running.
	for wait := stormNaiveRetry; wait < stormPatience; wait += stormNaiveRetry {
		clock.Sleep(submit + wait - clock.Now())
		if doneAt >= 0 {
			break
		}
		issue()
	}
	return attempts
}

// stormDefendedClient rides the full stack: every attempt carries a
// deadline (min of the per-attempt budget and the client's remaining
// patience), so doomed work is cancelled instead of served to nobody,
// and the re-issue loop runs under the shared defense — jittered
// backoff, a global retry budget, and a breaker that fails fast while
// the server is known-bad.
func stormDefendedClient(clock *simtime.Clock, srv *tsm.Server, defense *faults.Defense,
	r stormReq, id uint64, out *stormOutcome) int {
	submit := clock.Now()
	patienceEnd := submit + stormPatience
	attempts := 0
	retry := faults.Backoff{Attempts: 4, Base: 2 * time.Second, Factor: 2, Max: 15 * time.Second}
	err := defense.Do("client.recall", retry, func(int) error {
		attempts++
		deadline := clock.Now() + stormAttemptBudget
		if deadline > patienceEnd {
			deadline = patienceEnd
		}
		_, err := srv.Recall(tsm.RecallRequest{
			Client: "recall", ObjectID: id,
			QoS: sched.QoS{Class: r.class, Deadline: deadline},
		})
		return err
	}, func(err error) bool {
		// Shed is an answer ("come back later"), not a fault: do not
		// burn retry budget or breaker credit re-offering shed work.
		return !errors.Is(err, sched.ErrShed)
	})
	if r.class == sched.Interactive {
		m := int(r.at / time.Minute)
		out.cohortTotal[m]++
		if err == nil && clock.Now()-submit <= stormPatience {
			out.cohortServed[m]++
		}
	}
	return attempts
}

// stormCohort is one arrival-minute's interactive goodput on both
// stacks.
type stormCohort struct {
	Minute   int     `json:"minute"`
	Baseline float64 `json:"baseline_goodput"`
	Defended float64 `json:"defended_goodput"`
}

// stormReport is the storm report's Detail: the per-cohort goodput
// curves the headline metrics summarize.
type stormReport struct {
	Cohorts []stormCohort `json:"cohorts"`
}

// stormStudy is E23: the metastable retry storm and its defense. The
// same ~1.45x overload day — a two-minute total TSM outage under an
// unrelenting batch wave — replays twice. The baseline stack (pass-
// through admission, no deadlines, naive synchronized client retries)
// collapses: abandoned-but-running attempts eat the drives, so
// interactive goodput stays under half its pre-fault level for at
// least ten minutes AFTER the server is repaired. The defended stack
// (deadlines end-to-end, batch brownout shedding, jittered budgeted
// retries behind a breaker) re-converges to >=95% of pre-fault
// interactive goodput within five minutes of the repair, sheds only
// batch work, and accounts for every admission: admitted = completed
// + shed + deadline-cancelled.
func stormStudy(seed int64) Report {
	reqs := stormDemand(seed)
	base := stormRun(reqs, seed, false)
	def := stormRun(reqs, seed, true)

	outStart := int(stormOutageAt / time.Minute)
	repair := int((stormOutageAt + stormOutageLen) / time.Minute)
	lastFull := int(stormArrivalsEnd/time.Minute) - 1 // last complete cohort

	// Pre-fault reference: the warmup tail, after the first mounts.
	preFault := base.meanGoodput(4, outStart)
	defPre := def.meanGoodput(4, outStart)
	if preFault < 0.9 || defPre < 0.9 {
		panic(fmt.Sprintf("storm: pre-fault goodput %.2f/%.2f below 0.9: the plant is overloaded before the fault",
			preFault, defPre))
	}

	// Baseline half: metastable collapse. Every cohort for ten minutes
	// after the REPAIR stays under half the pre-fault goodput.
	for m := repair; m < repair+10; m++ {
		if g := base.goodput(m); g >= 0.5*preFault {
			panic(fmt.Sprintf("storm: baseline cohort %d goodput %.2f not < 50%% of pre-fault %.2f — no metastable collapse",
				m, g, preFault))
		}
	}
	// Defended half: re-convergence. Some cohort within five minutes of
	// the repair is back at >=95% of pre-fault, and the steady state
	// after the five-minute mark holds it on average.
	recovery := -1
	for m := repair; m <= repair+5 && m <= lastFull; m++ {
		if def.goodput(m) >= 0.95*defPre {
			recovery = m - repair
			break
		}
	}
	if recovery < 0 {
		panic(fmt.Sprintf("storm: defended stack never reached 95%% of pre-fault %.2f within 5 minutes of repair", defPre))
	}
	steady := def.meanGoodput(repair+5, lastFull+1)
	if steady < 0.95*defPre {
		panic(fmt.Sprintf("storm: defended steady goodput %.2f below 95%% of pre-fault %.2f", steady, defPre))
	}

	// Brownout contract: batch is shed, interactive never is; doomed
	// work is cancelled; the defense primitives all saw action.
	intShed := def.snap.Value("sched_shed_total", "class", "interactive")
	batchShed := def.snap.Value("sched_shed_total", "class", "batch")
	deadlines := def.snap.Total("deadline_exceeded_total")
	budgetDry := def.snap.Total("retry_budget_exhausted_total")
	rejected := def.snap.Total("breaker_rejected_total")
	if intShed != 0 {
		panic(fmt.Sprintf("storm: %v interactive admissions shed — the watermark must only brown out batch", intShed))
	}
	if batchShed == 0 || deadlines == 0 || budgetDry == 0 || rejected == 0 {
		panic(fmt.Sprintf("storm: a defense primitive never fired: shed=%v deadline=%v budget=%v breaker=%v",
			batchShed, deadlines, budgetDry, rejected))
	}
	// Accounting: work is refused loudly, never dropped. Every admitted
	// item either completed, was shed, or was deadline-cancelled.
	var admitted, completed, shed float64
	for _, c := range []sched.Class{sched.Interactive, sched.Batch, sched.Scavenger} {
		admitted += def.snap.Value("sched_submitted_total", "class", c.String())
		completed += def.snap.Value("sched_completed_total", "class", c.String())
		shed += def.snap.Value("sched_shed_total", "class", c.String())
	}
	if admitted != completed+shed+deadlines {
		panic(fmt.Sprintf("storm: accounting leak: admitted %v != completed %v + shed %v + deadline-cancelled %v",
			admitted, completed, shed, deadlines))
	}
	if base.attempts <= len(reqs) {
		panic("storm: naive client never amplified — the baseline is not a retry storm")
	}

	basePost := base.meanGoodput(repair, repair+10)
	rep := &stormReport{}
	for m := 0; m <= lastFull; m++ {
		rep.Cohorts = append(rep.Cohorts, stormCohort{Minute: m, Baseline: base.goodput(m), Defended: def.goodput(m)})
	}

	t := stats.NewTable("cohort minutes", "baseline goodput", "defended goodput")
	t.Row(fmt.Sprintf("warmup 4..%d", outStart-1), fmt.Sprintf("%.2f", preFault), fmt.Sprintf("%.2f", defPre))
	t.Row(fmt.Sprintf("outage %d..%d", outStart, repair-1),
		fmt.Sprintf("%.2f", base.meanGoodput(outStart, repair)), fmt.Sprintf("%.2f", def.meanGoodput(outStart, repair)))
	t.Row(fmt.Sprintf("post-repair %d..%d", repair, repair+9),
		fmt.Sprintf("%.2f", basePost), fmt.Sprintf("%.2f", def.meanGoodput(repair, repair+10)))
	t.Row(fmt.Sprintf("steady %d..%d", repair+5, lastFull),
		fmt.Sprintf("%.2f", base.meanGoodput(repair+5, lastFull+1)), fmt.Sprintf("%.2f", steady))

	r := Report{
		Name: "storm",
		Title: "Overload resilience: a 2-minute TSM outage under ~1.45x demand, " +
			"naive-retry baseline vs the deadline/budget/breaker/brownout stack",
		Body: t.String(),
		Notes: []string{
			fmt.Sprintf("%d requests; the naive client amplified them into %d attempts, the defended client into %d",
				len(reqs), base.attempts, def.attempts),
			fmt.Sprintf("baseline interactive goodput averaged %.0f%% of pre-fault for the 10 minutes AFTER repair — the storm outlives its trigger",
				100*basePost/preFault),
			fmt.Sprintf("defended stack back at >=95%% of pre-fault %d minute(s) after repair; %v batch admissions browned out, zero interactive",
				recovery, batchShed),
			fmt.Sprintf("every admission accounted for: %v admitted = %v completed + %v shed + %v deadline-cancelled",
				admitted, completed, shed, deadlines),
		},
	}
	r.metric("requests", float64(len(reqs)))
	r.metric("baseline_attempts", float64(base.attempts))
	r.metric("defended_attempts", float64(def.attempts))
	r.metric("outage_start_minute", float64(outStart))
	r.metric("outage_end_minute", float64(repair))
	r.metric("pre_fault_goodput", preFault)
	r.metric("baseline_post_fault_mean_goodput", basePost)
	r.metric("defended_recovery_minutes", float64(recovery))
	r.metric("defended_steady_goodput", steady)
	r.metric("interactive_shed_total", intShed)
	r.metric("batch_shed_total", batchShed)
	r.metric("deadline_exceeded_total", deadlines)
	r.metric("retry_budget_exhausted_total", budgetDry)
	r.metric("breaker_rejected_total", rejected)
	r.Telemetry = def.snap
	r.Detail = rep
	return r
}
