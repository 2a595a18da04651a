package experiments

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/tape"
	"repro/internal/telemetry"
	"repro/internal/tsm"
	"repro/internal/workload"
)

// E21 deployment shape: small enough to replay a full synthetic day
// quickly, contended enough that admission order is what decides who
// waits. Four drives serve four colocated data volumes, so steady
// state is seek+read per recall with no remount thrash — the queueing
// happens at the scheduler, not in the robot.
const (
	tenantDrives      = 4
	tenantObjects     = 160
	tenantObjectBytes = int64(256e6)
	tenantScavShare   = 0.10
)

// tenantDemand is the E21 population: a 1.2M-registered-user archive
// center replaying one compressed (3h) synthetic day of recall demand.
func tenantDemand(seed int64) workload.TenantPopulation {
	return workload.TenantPopulation{
		Tenants:  1_200_000,
		Seed:     seed,
		Requests: 2500,
		Day:      3 * time.Hour,
	}
}

// tenantOutcome is one replay of the day's demand — scheduled (the
// session station limited to the drive count, QoS arbitration on) or
// baseline (pass-through admission, FIFO at the drive pool).
type tenantOutcome struct {
	makespan simtime.Duration
	bytes    int64
	recalls  int

	count [4]float64 // scheduled-run wait observations by class
	p50   [4]float64
	p99   [4]float64

	starved  float64
	sloViol  float64
	scavObs  float64
	fairness float64

	snap *telemetry.Snapshot
}

// tenantRun seeds a four-volume archive and replays the request
// stream: each request is one tenant recalling one object under its
// own (tenant, class) QoS tag.
func tenantRun(reqs []workload.Request, scheduled bool) tenantOutcome {
	var out tenantOutcome
	out.snap = runClock(func(clock *simtime.Clock) func() {
		lib := tape.NewLibrary(clock, tenantDrives, 16, 2, tape.LTO4())
		srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
		sch := sched.Of(clock)
		return func() {
			// Seed the archive: one colocation group per drive, so every
			// volume ends up pinned to its own drive during the recall day.
			objs := make([]tsm.Object, 0, tenantObjects)
			for i := 0; i < tenantObjects; i++ {
				g := i % tenantDrives
				obj, err := srv.Store(tsm.StoreRequest{
					Client: fmt.Sprintf("seed-%d", g),
					Path:   fmt.Sprintf("/pool%d/f%04d", g, i),
					Bytes:  tenantObjectBytes,
					Group:  fmt.Sprintf("pool-%d", g),
				})
				if err != nil {
					panic(fmt.Sprintf("tenants: seed store: %v", err))
				}
				objs = append(objs, obj)
			}

			if scheduled {
				sch.SetLimit(sched.StationSession, tenantDrives)
				sch.SetScavengerShare(tenantScavShare)
				sch.SetStarvationThreshold(2 * time.Hour)
				sch.SetSLO(sched.Interactive, 5*time.Minute)
			}

			start := clock.Now()
			wg := simtime.NewWaitGroup(clock)
			wg.Add(len(reqs))
			for i, r := range reqs {
				i, r := i, r
				clock.At(start+r.At, func() {
					defer wg.Done()
					obj := objs[(r.Tenant+104729*i)%len(objs)]
					// One shared TSM client: as in the real product, the
					// recall daemon owns the drive sessions — per-tenant
					// identity rides in the QoS tag, not the session (a
					// client per tenant would pay the §6.2 handoff thrash
					// on every single recall).
					got, err := srv.Recall(tsm.RecallRequest{
						Client:   "recall",
						ObjectID: obj.ID,
						QoS:      sched.QoS{Tenant: workload.TenantName(r.Tenant), Class: r.Class},
					})
					if err != nil {
						panic(fmt.Sprintf("tenants: recall: %v", err))
					}
					out.bytes += got.Bytes
					out.recalls++
				})
			}
			wg.Wait()
			out.makespan = clock.Now() - start

			reg := telemetry.Of(clock)
			for _, c := range []sched.Class{sched.Interactive, sched.Batch, sched.Scavenger} {
				sum := reg.Summary("sched_queue_wait_seconds", "class", c.String())
				out.count[c] = sum.Count()
				if sum.Count() > 0 {
					out.p50[c] = sum.Quantile(0.50)
					out.p99[c] = sum.Quantile(0.99)
				}
				out.starved += reg.Counter("sched_starvation_total", "class", c.String()).Value()
				out.sloViol += reg.Counter("sched_slo_violations_total", "class", c.String()).Value()
			}
			if scav, total := sch.ContentionStats(); total > 0 {
				out.scavObs = float64(scav) / float64(total)
			}
			out.fairness = jainMeanWait(sch.TenantStats(), sched.Batch)
		}
	}).snap
	return out
}

// jainMeanWait computes the Jain fairness index over per-tenant mean
// queue waits within one class (1 = perfectly even, 1/n = one tenant
// absorbs all the waiting). The system/default tenants are excluded —
// the fairness question is across users.
func jainMeanWait(ts []sched.TenantStat, class sched.Class) float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range ts {
		if t.Class != class || t.Items == 0 || t.Tenant == sched.DefaultTenant || t.Tenant == "system" {
			continue
		}
		w := t.WaitSum.Seconds() / float64(t.Items)
		sum += w
		sumSq += w * w
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// tenantStudy is E21: multi-tenant QoS over the unified admission
// layer. A 1.2M-user population with Zipf activity, a diurnal arrival
// curve, and bursty sessions replays one compressed day of recall
// demand twice — once against pass-through admission (FIFO at the
// drive pool, the E1–E20 path) and once with the session station
// limited to the drive count so the scheduler arbitrates. The
// experiment asserts the scheduler's contract: strict p99 queue-wait
// ordering interactive < batch < scavenger, zero starvation events,
// the scavenger anti-starvation share honored under contention, and
// aggregate recall throughput within 5% of the unscheduled baseline —
// QoS costs priority inversion, not bandwidth.
func tenantStudy(seed int64) Report {
	pop := tenantDemand(seed)
	reqs := pop.GenerateRequests()
	if pop.Tenants < 1_000_000 {
		panic(fmt.Sprintf("tenants: population %d below the 1M contract", pop.Tenants))
	}

	classReqs := map[sched.Class]int64{}
	active := map[int]bool{}
	for _, r := range reqs {
		classReqs[r.Class]++
		active[r.Tenant] = true
	}
	topShare := workload.ActivityShare(reqs, pop.Tenants, 0.01)

	base := tenantRun(reqs, false)
	schd := tenantRun(reqs, true)

	if base.recalls != len(reqs) || schd.recalls != len(reqs) {
		panic(fmt.Sprintf("tenants: served %d/%d recalls (base %d)", schd.recalls, len(reqs), base.recalls))
	}
	for _, c := range []sched.Class{sched.Interactive, sched.Batch, sched.Scavenger} {
		if schd.count[c] == 0 {
			panic(fmt.Sprintf("tenants: no %s admissions crossed the limited station", c))
		}
	}
	if !(schd.p99[sched.Interactive] < schd.p99[sched.Batch] && schd.p99[sched.Batch] < schd.p99[sched.Scavenger]) {
		panic(fmt.Sprintf("tenants: p99 waits not strictly ordered: interactive %.1fs, batch %.1fs, scavenger %.1fs",
			schd.p99[sched.Interactive], schd.p99[sched.Batch], schd.p99[sched.Scavenger]))
	}
	if schd.starved != 0 {
		panic(fmt.Sprintf("tenants: %d admissions starved past the threshold", int(schd.starved)))
	}
	if schd.scavObs < 0.5*tenantScavShare {
		panic(fmt.Sprintf("tenants: observed scavenger share %.3f below half the configured %.2f",
			schd.scavObs, tenantScavShare))
	}
	mbs := func(o tenantOutcome) float64 { return stats.MB(float64(o.bytes)) / o.makespan.Seconds() }
	baseMBs, schdMBs := mbs(base), mbs(schd)
	delta := (schdMBs - baseMBs) / baseMBs
	if delta < -0.05 || delta > 0.05 {
		panic(fmt.Sprintf("tenants: scheduled throughput %.1f MB/s vs baseline %.1f MB/s (%.1f%%): QoS must not cost bandwidth",
			schdMBs, baseMBs, delta*100))
	}

	t := stats.NewTable("metric", "interactive", "batch", "scavenger")
	t.Row("requests", classReqs[sched.Interactive], classReqs[sched.Batch], classReqs[sched.Scavenger])
	t.Row("p50 wait (s)", fmt.Sprintf("%.1f", schd.p50[sched.Interactive]),
		fmt.Sprintf("%.1f", schd.p50[sched.Batch]), fmt.Sprintf("%.1f", schd.p50[sched.Scavenger]))
	t.Row("p99 wait (s)", fmt.Sprintf("%.1f", schd.p99[sched.Interactive]),
		fmt.Sprintf("%.1f", schd.p99[sched.Batch]), fmt.Sprintf("%.1f", schd.p99[sched.Scavenger]))

	r := Report{
		Name: "tenants",
		Title: "Multi-tenant QoS: 1.2M-user day of recall demand under " +
			"unified admission vs FIFO baseline",
		Body: t.String(),
		Notes: []string{
			fmt.Sprintf("population %d registered tenants, %d active on the day; the top 1%% of users drive %.0f%% of requests",
				pop.Tenants, len(active), topShare*100),
			fmt.Sprintf("aggregate recall throughput %.1f MB/s scheduled vs %.1f MB/s FIFO baseline (%+.1f%%): arbitration reorders the queue, it does not shrink the pipe",
				schdMBs, baseMBs, delta*100),
			fmt.Sprintf("scavenger work held %.1f%% of contended dispatches (%.0f%% share configured); zero admissions starved past the 2h threshold",
				schd.scavObs*100, tenantScavShare*100),
			fmt.Sprintf("Jain fairness of per-tenant mean batch wait: %.3f", schd.fairness),
		},
	}
	r.metric("population", float64(pop.Tenants))
	r.metric("active_tenants", float64(len(active)))
	r.metric("requests", float64(len(reqs)))
	r.metric("top1pct_share", topShare)
	for _, c := range []sched.Class{sched.Interactive, sched.Batch, sched.Scavenger} {
		r.metric("requests_"+c.String(), float64(classReqs[c]))
		r.metric("p50_"+c.String()+"_s", schd.p50[c])
		r.metric("p99_"+c.String()+"_s", schd.p99[c])
	}
	r.metric("starvation_events", schd.starved)
	r.metric("slo_violations", schd.sloViol)
	r.metric("scav_share_configured", tenantScavShare)
	r.metric("scav_share_observed", schd.scavObs)
	r.metric("fairness_batch_jain", schd.fairness)
	r.metric("baseline_mbs", baseMBs)
	r.metric("scheduled_mbs", schdMBs)
	r.metric("throughput_delta_pct", delta*100)
	r.Telemetry = schd.snap
	return r
}
