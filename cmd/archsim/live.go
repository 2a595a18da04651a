package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/tsm"
	"repro/internal/workload"
)

// serveLive runs the §5.2 campaign on a paced clock with the operator
// plane attached: scrape /metrics, tail /events and /spans, and steer
// the run through /ops/... while it happens. After the campaign
// finishes the server keeps answering (settled) until interrupted, so
// dashboards can still pull the final state.
func serveLive(addr string, pace float64, seed int64, jobs int) error {
	clock := simtime.NewClock()
	if pace > 0 {
		clock.SetPace(pace)
	}
	cfg := workload.PaperCampaign(seed)
	if jobs > 0 {
		cfg.Jobs = jobs
	}
	sys := archive.NewDefault(clock)
	reg := faults.New(clock)
	sys.InstallFaults(reg)
	scrubber := sys.Scrubber(tsm.ScrubConfig{Client: "operator-scrub"})

	srv := obs.New(clock, obs.Actions{Faults: reg, TSM: sys.TSM, Scrub: scrubber})
	url, err := srv.Start(addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if pace > 0 {
		fmt.Fprintf(os.Stderr, "archsim: operator plane at %s (pace %gx virtual)\n", url, pace)
	} else {
		fmt.Fprintf(os.Stderr, "archsim: operator plane at %s (free-running clock)\n", url)
	}

	var res archive.CampaignResult
	var runErr error
	clock.Go(func() {
		res, runErr = archive.RunCampaign(sys, cfg, pftool.DefaultTunables(), os.Stderr)
	})
	clock.RunFor()
	srv.Settle()
	if runErr != nil {
		srv.Close()
		return fmt.Errorf("campaign: %w", runErr)
	}
	fmt.Fprintf(os.Stderr,
		"archsim: campaign done (%d jobs, %v virtual); plane still serving at %s — interrupt to exit\n",
		len(res.Jobs), time.Duration(clock.Now()), url)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return srv.Close()
}
