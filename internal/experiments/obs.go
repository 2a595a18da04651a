package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// observabilitySelfCheck is E17: the telemetry layer audits itself.
// It replays a small campaign for the registry-derived aggregate data
// rate, then re-runs the chaos drill and asserts the flight recorder
// explains each injected mover crash: every node-fail fault event must
// appear as the linked cause of at least one aborted span. The
// experiment panics on violation — a flight recorder that cannot
// explain a fault is worse than none.
func observabilitySelfCheck(seed int64) Report {
	res, _ := CampaignData(CampaignParams{Seed: seed, Jobs: 6, MaxSimFiles: 2000})
	var regBytes, secs float64
	for _, j := range res.Jobs {
		regBytes += float64(j.Bytes)
		secs += j.Elapsed.Seconds()
	}
	if secs <= 0 || regBytes <= 0 {
		panic("observability self-check: campaign produced no measurable work")
	}
	regRate := stats.MB(regBytes) / secs

	// The chaos drill's flight dump must link every injected node crash
	// to at least one aborted span citing it as the cause.
	dirty := chaosRun(seed, true)
	type crash struct {
		id        uint64
		component string
		aborted   int
	}
	var crashes []crash
	for _, ev := range dirty.flight.Events {
		if ev.Name == "fault" && ev.Attr("kind") == "fail" && strings.HasPrefix(ev.Attr("component"), "node:") {
			crashes = append(crashes, crash{id: ev.ID, component: ev.Attr("component")})
		}
	}
	if len(crashes) == 0 {
		dirty.failf("observability self-check: chaos run recorded no node-crash fault events")
	}
	aborted := dirty.flight.Aborted()
	for i := range crashes {
		for _, sp := range aborted {
			if sp.CauseEvent == crashes[i].id {
				crashes[i].aborted++
			}
		}
		if crashes[i].aborted == 0 {
			dirty.failf("observability self-check: mover crash %s (event %d) caused no aborted span",
				crashes[i].component, crashes[i].id)
		}
	}

	t := stats.NewTable("check", "value")
	t.Row("campaign jobs", len(res.Jobs))
	t.Row("registry MB/s", fmt.Sprintf("%.2f", regRate))
	t.Row("mover crashes", len(crashes))
	for _, c := range crashes {
		t.Row("aborted spans caused by "+c.component, c.aborted)
	}
	t.Row("total aborted spans", len(aborted))

	r := Report{
		Name:  "obs",
		Title: "Observability self-check: fault-to-abort causality",
		Body:  t.String(),
		Notes: []string{
			"each injected mover crash must surface as the linked cause of >=1 aborted span in the flight dump",
		},
	}
	r.metric("registry_mbs", regRate)
	r.metric("mover_crashes", float64(len(crashes)))
	r.metric("aborted_spans", float64(len(aborted)))
	r.Telemetry = dirty.snap
	r.Flight = dirty.flight
	return r
}
