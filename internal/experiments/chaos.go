package experiments

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// chaosOutcome is one full archive pass (pfcp + migrate + audit),
// clean or under the fault schedule.
type chaosOutcome struct {
	copyRes    pftool.Result
	migRes     hsm.MigrateResult
	audit      archive.AuditResult
	objects    int
	tsmRetries int
	events     int
	copyTime   simtime.Duration
	migTime    simtime.Duration

	// Registry-derived byte counts for the two phases.
	regCopyBytes float64
	regMigBytes  float64

	plantRun // the run's telemetry snapshot and flight dump
}

// chaosRun archives one synthetic project end to end on a fresh
// deployment. With chaos set it arms the adversarial schedule: two
// permanent drive failures and a TSM outage land during the tape
// migration, a mover crash and a trunk degradation land during the
// pfcp, and one cartridge goes read-only mid-migrate.
func chaosRun(seed int64, chaos bool) chaosOutcome {
	var out chaosOutcome
	out.plantRun = runFaulted(func(opts *archive.Options) {
		// A small library so losing two drives is a visible capacity cut
		// (2/8 = 25%), not noise inside a 24-drive pool.
		opts.TapeDrives = 8
		opts.Cartridges = 128
	}, func(sys *archive.System, reg *faults.Registry) {
		clock := sys.Clock
		tel := telemetry.Of(clock)
		spec := workload.JobSpec{
			ID: 1, Project: "chaos",
			NumFiles: 120, TotalBytes: 60e9, AvgFileSize: 500e6,
		}
		if _, err := workload.BuildTree(sys.Scratch, "/proj", spec, seed, 512); err != nil {
			panic(err)
		}

		if chaos {
			// Pfcp-phase faults: one mover machine crashes mid-copy and
			// reboots two minutes later (its PFTool ranks die for the
			// run; the machine is back for the migrate), and the trunk
			// runs at half rate for a minute.
			now := clock.Now()
			reg.Window(faults.NodeComponent(sys.Cluster.Nodes()[4].Name), now+10*time.Second, 2*time.Minute)
			reg.DegradeWindow(faults.LinkComponent("trunk"), 0.5, now+5*time.Second, time.Minute)
		}
		tun := pftool.DefaultTunables()
		tun.WatchdogInterval = 5 * time.Second
		ctrCopyBytes := tel.Counter("pftool_bytes_copied_total", "op", "pfcp")
		copyBytes0 := ctrCopyBytes.Value()
		start := clock.Now()
		copyRes, err := sys.Pfcp("/proj", "/arc/proj", tun)
		if err != nil {
			panic(fmt.Sprintf("chaos pfcp: %v (errors %v)", err, copyRes.Errors))
		}
		out.copyRes = copyRes
		out.copyTime = clock.Now() - start
		out.regCopyBytes = ctrCopyBytes.Value() - copyBytes0

		if chaos {
			// Migrate-phase faults: two drives die for good early in the
			// run, one cartridge goes read-only, and the TSM server takes
			// a 30-second outage.
			now := clock.Now()
			reg.FailAt(faults.DriveComponent(sys.Library.Drive(0).Name), now+5*time.Second)
			reg.FailAt(faults.DriveComponent(sys.Library.Drive(1).Name), now+15*time.Second)
			reg.FailAt(faults.VolumeComponent(sys.Library.Cartridges()[0].Label), now+10*time.Second)
			reg.Window(sys.TSM.Component(), now+20*time.Second, 30*time.Second)
		}
		ctrMigBytes := tel.Counter("hsm_migrated_bytes_total")
		migBytes0 := ctrMigBytes.Value()
		start = clock.Now()
		migRes, err := sys.MigrateTree("/arc/proj", hsm.MigrateOptions{Balanced: true})
		if err != nil {
			panic(fmt.Sprintf("chaos migrate: %v", err))
		}
		out.migRes = migRes
		out.migTime = clock.Now() - start
		out.regMigBytes = ctrMigBytes.Value() - migBytes0

		audit, err := sys.Audit()
		if err != nil {
			panic(fmt.Sprintf("chaos audit: %v", err))
		}
		out.audit = audit
		out.objects = sys.TSM.NumObjects()
		out.tsmRetries = int(tel.Counter("tsm_retries_total").Value())
		out.events = len(reg.Log())
	})
	return out
}

// chaosStudy is the end-to-end failure drill: archive a project while
// drives die permanently, a mover crashes mid-copy, a cartridge goes
// read-only, the trunk degrades, and the TSM server takes an outage —
// then audit that every file was archived exactly once and that
// throughput degraded in proportion to the lost capacity, not worse.
func chaosStudy(seed int64) Report {
	clean := chaosRun(seed, false)
	dirty := chaosRun(seed, true)

	// Invariants. The experiment panics rather than reporting garbage:
	// a chaos run that loses or duplicates a file is a bug, not a data
	// point.
	failf := dirty.failf
	if dirty.copyRes.FilesCopied != clean.copyRes.FilesCopied {
		failf("chaos run copied %d files, clean run %d",
			dirty.copyRes.FilesCopied, clean.copyRes.FilesCopied)
	}
	if dirty.migRes.Files != dirty.copyRes.FilesCopied {
		failf("chaos run migrated %d of %d files",
			dirty.migRes.Files, dirty.copyRes.FilesCopied)
	}
	if dirty.objects != dirty.migRes.Files {
		failf("TSM holds %d objects for %d migrated files (exactly-once violated)",
			dirty.objects, dirty.migRes.Files)
	}
	if !dirty.audit.Clean() {
		failf("chaos audit not clean: %+v", dirty.audit)
	}

	// Headline rates come from the telemetry registry counters, not the
	// subsystem result structs (lint_test.go enforces the split).
	copyRate := func(o chaosOutcome) float64 {
		return stats.MB(o.regCopyBytes) / o.copyTime.Seconds()
	}
	migRate := func(o chaosOutcome) float64 {
		return stats.MB(o.regMigBytes) / o.migTime.Seconds()
	}

	t := stats.NewTable("metric", "clean", "chaos")
	t.Row("files archived", clean.copyRes.FilesCopied, dirty.copyRes.FilesCopied)
	t.Row("files on tape", clean.migRes.Files, dirty.migRes.Files)
	t.Row("TSM objects", clean.objects, dirty.objects)
	t.Row("pfcp MB/s", fmt.Sprintf("%.0f", copyRate(clean)), fmt.Sprintf("%.0f", copyRate(dirty)))
	t.Row("migrate MB/s", fmt.Sprintf("%.0f", migRate(clean)), fmt.Sprintf("%.0f", migRate(dirty)))
	t.Row("PFTool ranks died", clean.copyRes.RanksDied, dirty.copyRes.RanksDied)
	t.Row("HSM files requeued", clean.migRes.Requeued, dirty.migRes.Requeued)
	t.Row("TSM retries", clean.tsmRetries, dirty.tsmRetries)
	t.Row("fault events", clean.events, dirty.events)
	t.Row("audit clean", clean.audit.Clean(), dirty.audit.Clean())

	r := Report{
		Name: "chaos",
		Title: "Failure drill: 2 permanent drive failures + mover crash + " +
			"read-only media + trunk degradation + TSM outage",
		Body: t.String(),
		Notes: []string{
			"every file is archived exactly once: the shadow/TSM audit is clean and object count matches",
			"losing 2 of 8 drives caps tape bandwidth at 75%; migrate rate should degrade toward that, not collapse",
		},
	}
	r.metric("files", float64(dirty.copyRes.FilesCopied))
	r.metric("objects", float64(dirty.objects))
	r.metric("audit_clean", b2f(dirty.audit.Clean()))
	r.metric("ranks_died", float64(dirty.copyRes.RanksDied))
	r.metric("hsm_requeued", float64(dirty.migRes.Requeued))
	r.metric("tsm_retries", float64(dirty.tsmRetries))
	r.metric("fault_events", float64(dirty.events))
	r.metric("copy_rate_ratio", copyRate(dirty)/copyRate(clean))
	r.metric("migrate_rate_ratio", migRate(dirty)/migRate(clean))
	r.metric("aborted_spans", float64(len(dirty.flight.Aborted())))
	r.Telemetry = dirty.snap
	r.Flight = dirty.flight
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
