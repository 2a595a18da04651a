package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/tape"
	"repro/internal/telemetry"
	"repro/internal/tsm"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// integrityOutcome is one end-to-end integrity pass: archive a project,
// duplicate it into the copy pool, then (when injecting) rot media at
// rest, scrub concurrently with a second archival job, corrupt the
// recall path in flight, recall everything, and byte-compare.
type integrityOutcome struct {
	rotFiles    int // tape files damaged by the injected media rot
	taintsArmed int // in-flight corruptions armed on the recall link

	backup tsm.BackupResult
	scrub  []tsm.ScrubReport
	quar   []string

	// TSM integrity counters, from the registry.
	detected, repaired, unrepairable int

	// Second archival job's tape-migration window, from the registry —
	// the rate the concurrent scrub steals bandwidth from.
	migBytes float64
	migTime  simtime.Duration

	// Byte-compare of both source trees against the archive after every
	// file was recalled: the reader-facing proof.
	matched, mismatched, missing int

	plantRun // the run's telemetry snapshot and flight dump
}

// rotFractions positions the three injected bit-rot sites, spread far
// enough apart that each lands in a distinct tape file.
var rotFractions = []float64{0.125, 0.5, 0.875}

// integrityRun archives two synthetic projects on a fresh deployment
// with a copy storage pool. With inject set it arms the silent half of
// the threat model between the phases: three media-rot faults on
// primary volumes after the first project is duplicated, a background
// scrub pass racing the second project's migration, and two in-flight
// link corruptions on the recall path.
func integrityRun(seed int64, inject bool) integrityOutcome {
	var out integrityOutcome
	out.plantRun = runFaulted(func(opts *archive.Options) {
		opts.TapeDrives = 8
		opts.Cartridges = 64
		opts.CopyPoolCartridges = 8
	}, func(sys *archive.System, reg *faults.Registry) {
		clock := sys.Clock
		tel := telemetry.Of(clock)
		// Detection spans from the scrub must survive the recall and
		// compare phases that follow them in the ring.
		tel.SetFlightCapacity(16384)
		tun := pftool.DefaultTunables()

		// Phase 1: archive project 1 and duplicate it into the copy pool.
		spec1 := workload.JobSpec{
			ID: 1, Project: "integrity",
			NumFiles: 100, TotalBytes: 40e9, AvgFileSize: 400e6,
		}
		if _, err := workload.BuildTree(sys.Scratch, "/proj", spec1, seed, 512); err != nil {
			panic(err)
		}
		if _, err := sys.Pfcp("/proj", "/arc/proj", tun); err != nil {
			panic(fmt.Sprintf("integrity pfcp: %v", err))
		}
		if _, err := sys.MigrateTree("/arc/proj", hsm.MigrateOptions{Balanced: true}); err != nil {
			panic(fmt.Sprintf("integrity migrate: %v", err))
		}
		backup, err := sys.TSM.BackupPool("mover")
		if err != nil {
			panic(fmt.Sprintf("integrity backup pool: %v", err))
		}
		out.backup = backup

		// Phase 2: bit rot at rest. Each fault picks a byte offset as a
		// fraction of the volume's written region; the cartridge keeps
		// mounting and reading as if healthy.
		if inject {
			copyVols := make(map[string]bool)
			for _, l := range sys.TSM.CopyPoolVolumes() {
				copyVols[l] = true
			}
			var primaries []*tape.Cartridge
			for _, c := range sys.Library.Cartridges() {
				if c.Used() > 0 && !copyVols[c.Label] {
					primaries = append(primaries, c)
				}
			}
			if len(primaries) == 0 {
				panic("integrity: no primary volume holds data")
			}
			for i, frac := range rotFractions {
				reg.Apply(faults.Event{
					Component: faults.VolumeComponent(primaries[i%len(primaries)].Label),
					Kind:      faults.KindCorrupt,
					Param:     frac,
				})
			}
			for _, c := range primaries {
				out.rotFiles += c.CorruptCount()
			}
			if out.rotFiles != len(rotFractions) {
				panic(fmt.Sprintf("integrity: %d rot sites damaged %d tape files; want distinct files",
					len(rotFractions), out.rotFiles))
			}
		}

		// Phase 3: a scrub pass races project 2's archival — the
		// bandwidth the scrubber reads is stolen from the same drive
		// pool the migration writes through.
		var wg *simtime.WaitGroup
		if inject {
			scrubber := sys.Scrubber(tsm.ScrubConfig{Client: "scrubber"})
			wg = simtime.NewWaitGroup(clock)
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				out.scrub = append(out.scrub, scrubber.ScrubOnce())
			})
		}
		spec2 := workload.JobSpec{
			ID: 2, Project: "integrity2",
			NumFiles: 60, TotalBytes: 21e9, AvgFileSize: 350e6,
		}
		if _, err := workload.BuildTree(sys.Scratch, "/proj2", spec2, seed+1, 512); err != nil {
			panic(err)
		}
		if _, err := sys.Pfcp("/proj2", "/arc/proj2", tun); err != nil {
			panic(fmt.Sprintf("integrity pfcp 2: %v", err))
		}
		ctrMig := tel.Counter("hsm_migrated_bytes_total")
		mig0, t0 := ctrMig.Value(), clock.Now()
		if _, err := sys.MigrateTree("/arc/proj2", hsm.MigrateOptions{Balanced: true}); err != nil {
			panic(fmt.Sprintf("integrity migrate 2: %v", err))
		}
		out.migBytes = ctrMig.Value() - mig0
		out.migTime = clock.Now() - t0
		if wg != nil {
			wg.Wait()
		}

		// Phase 4: recall everything through a deliberately corrupted
		// path and byte-compare the round trip. Both armed taints hit
		// recall flows (the pinned recall is the only traffic crossing
		// that HBA), so every corruption must be caught by the verifying
		// recall ladder — wrong bytes never reach the reader.
		if inject {
			node := sys.Cluster.Nodes()[2].Name
			const taints = 2
			reg.Apply(faults.Event{
				Component: faults.LinkComponent(node + "-hba"),
				Kind:      faults.KindCorrupt,
				Param:     taints,
			})
			out.taintsArmed = taints

			var paths []string
			var ids []vfs.FileID
			for _, root := range []string{"/arc/proj", "/arc/proj2"} {
				if err := sys.Archive.Walk(root, func(i pfs.Info) error {
					if !i.IsDir() {
						paths = append(paths, i.Path)
						ids = append(ids, i.ID)
					}
					return nil
				}); err != nil {
					panic(err)
				}
			}
			locs, missing := sys.HSM.Locate(paths, ids)
			if len(missing) > 0 {
				panic(fmt.Sprintf("integrity: %d archived files missing from the backend", len(missing)))
			}
			sort.SliceStable(locs, func(i, j int) bool {
				if locs[i].Volume != locs[j].Volume {
					return locs[i].Volume < locs[j].Volume
				}
				return locs[i].Seq < locs[j].Seq
			})
			ordered := make([]string, len(locs))
			orderedIDs := make([]vfs.FileID, len(locs))
			for i, l := range locs {
				ordered[i], orderedIDs[i] = l.Path, l.ID
			}
			if err := sys.HSM.RecallPinned(node, ordered, orderedIDs, sched.QoS{}); err != nil {
				panic(fmt.Sprintf("integrity recall: %v", err))
			}
			if left := sys.Fabric.Link(node + "-hba").ArmedCorruptions(); left != 0 {
				panic(fmt.Sprintf("integrity: %d armed link corruptions never crossed a recall flow", left))
			}
			// Fixed order, not a map literal: map iteration order is
			// randomized per run, and which project verifies first decides
			// the fabric settle grouping — a byte-level determinism leak
			// (ulp drift in fabric_link_bytes_total) that only map order
			// could produce.
			for _, pair := range [][2]string{{"/proj", "/arc/proj"}, {"/proj2", "/arc/proj2"}} {
				res, err := sys.Pfcm(pair[0], pair[1], tun)
				if err != nil {
					panic(fmt.Sprintf("integrity pfcm %s: %v (%v)", pair[0], err, res.Mismatches))
				}
				out.matched += res.Matched
				out.mismatched += res.Mismatched
				out.missing += res.Missing
			}
		}

		out.detected = int(tel.Counter("tsm_integrity_detected_total").Value())
		out.repaired = int(tel.Counter("tsm_integrity_repaired_total").Value())
		out.unrepairable = int(tel.Counter("tsm_integrity_unrepairable_total").Value())
		out.quar = sys.TSM.QuarantinedVolumes()
	})
	return out
}

// integrityStudy is E18: the end-to-end data-integrity drill. A project
// is archived, duplicated into the copy storage pool, then silently
// damaged — three media-rot faults on primary volumes plus two
// in-flight corruptions on the recall path — while a scrub pass races a
// second project's migration. The experiment asserts the integrity
// pipeline's contract: every injected corruption is detected by a
// checksum (none by a reader), every damaged object is repaired from
// the copy pool or cured by a re-read, the final byte-compare of both
// round-tripped trees is clean, and every detection span in the flight
// dump cites the provoking corruption fault's event ID. It also
// quantifies the scrub tax: the second job's migration rate with the
// scrubber racing it versus the clean baseline.
func integrityStudy(seed int64) Report {
	base := integrityRun(seed, false)
	dirty := integrityRun(seed, true)

	failf := dirty.failf

	// Every injected corruption is caught by a checksum, and nothing
	// reaches a reader: detections equal injections, repairs equal the
	// on-media damage (in-flight taints are cured by re-reads), no
	// object is unrepairable, and the byte-compare is clean.
	wantDetected := dirty.rotFiles + dirty.taintsArmed
	if dirty.detected != wantDetected {
		failf("integrity: detected %d corruptions, injected %d (%d rot + %d in-flight)",
			dirty.detected, wantDetected, dirty.rotFiles, dirty.taintsArmed)
	}
	if dirty.repaired != dirty.rotFiles {
		failf("integrity: repaired %d of %d rotted objects", dirty.repaired, dirty.rotFiles)
	}
	if dirty.unrepairable != 0 {
		failf("integrity: %d objects unrepairable despite the copy pool", dirty.unrepairable)
	}
	if len(dirty.scrub) != 1 || dirty.scrub[0].Detected != dirty.rotFiles || dirty.scrub[0].Repaired != dirty.rotFiles {
		failf("integrity: scrub reports %+v, want one pass catching all %d rot sites", dirty.scrub, dirty.rotFiles)
	}
	if len(dirty.quar) == 0 {
		failf("integrity: media rot quarantined no volume")
	}
	if dirty.mismatched != 0 || dirty.missing != 0 || dirty.matched == 0 {
		failf("integrity: round-trip compare matched %d, mismatched %d, missing %d — corrupt bytes reached a reader",
			dirty.matched, dirty.mismatched, dirty.missing)
	}

	// Causality: every tsm.integrity detection span cites a corrupt
	// fault event, and every media-rot fault event is cited by at least
	// one detection span.
	corruptEvents := make(map[uint64]string) // event ID -> component
	for _, ev := range dirty.flight.Events {
		if ev.Name == "fault" && ev.Attr("kind") == "corrupt" {
			corruptEvents[ev.ID] = ev.Attr("component")
		}
	}
	cited := make(map[uint64]int)
	detections := 0
	for _, sp := range dirty.flight.Aborted() {
		if sp.Name != "tsm.integrity" {
			continue
		}
		detections++
		if sp.CauseEvent == 0 {
			failf("integrity: detection span %d (volume %s) cites no fault event", sp.ID, sp.Attr("volume"))
		}
		if _, ok := corruptEvents[sp.CauseEvent]; !ok {
			failf("integrity: detection span %d cites event %d, which is not a corruption fault", sp.ID, sp.CauseEvent)
		}
		cited[sp.CauseEvent]++
	}
	if detections != wantDetected {
		failf("integrity: flight dump holds %d detection spans, want %d", detections, wantDetected)
	}
	for id, comp := range corruptEvents {
		if strings.HasPrefix(comp, "volume:") && cited[id] == 0 {
			failf("integrity: media-rot fault %d on %s was never cited by a detection span", id, comp)
		}
	}

	migRate := func(o integrityOutcome) float64 { return stats.MB(o.migBytes) / o.migTime.Seconds() }
	tax := 1 - migRate(dirty)/migRate(base)
	scrubRate := 0.0
	if len(dirty.scrub) == 1 && dirty.scrub[0].Elapsed > 0 {
		scrubRate = stats.MB(float64(dirty.scrub[0].BytesRead)) / dirty.scrub[0].Elapsed.Seconds()
	}

	t := stats.NewTable("metric", "clean", "integrity drill")
	t.Row("copy-pool duplicates", base.backup.Objects, dirty.backup.Objects)
	t.Row("media-rot tape files", 0, dirty.rotFiles)
	t.Row("in-flight corruptions", 0, dirty.taintsArmed)
	t.Row("checksum detections", base.detected, dirty.detected)
	t.Row("copy-pool repairs", base.repaired, dirty.repaired)
	t.Row("unrepairable objects", base.unrepairable, dirty.unrepairable)
	t.Row("quarantined volumes", len(base.quar), len(dirty.quar))
	t.Row("round-trip mismatches", "-", dirty.mismatched)
	t.Row("job-2 migrate MB/s", fmt.Sprintf("%.0f", migRate(base)), fmt.Sprintf("%.0f", migRate(dirty)))
	t.Row("scrub read MB/s", "-", fmt.Sprintf("%.0f", scrubRate))
	t.Row("scrub tax on migrate", "-", fmt.Sprintf("%.1f%%", tax*100))

	r := Report{
		Name: "integrity",
		Title: "Data-integrity drill: media bit rot + in-flight corruption vs " +
			"checksum pipeline, copy-pool repair, and background scrub",
		Body: t.String(),
		Notes: []string{
			"every injected corruption is detected by a checksum before any reader sees the bytes; the round-trip byte-compare is clean",
			"rotted objects are re-staged from the copy storage pool onto fresh volumes; the damaged volumes stay quarantined for the operator",
			"each detection span in the flight dump cites the provoking corruption fault's event ID",
			"the scrub tax row is the migration bandwidth the concurrent scrub pass stole from the archive path",
		},
	}
	r.metric("rot_files", float64(dirty.rotFiles))
	r.metric("taints_armed", float64(dirty.taintsArmed))
	r.metric("detected", float64(dirty.detected))
	r.metric("repaired", float64(dirty.repaired))
	r.metric("unrepairable", float64(dirty.unrepairable))
	r.metric("quarantined_volumes", float64(len(dirty.quar)))
	r.metric("roundtrip_matched", float64(dirty.matched))
	r.metric("roundtrip_mismatched", float64(dirty.mismatched))
	r.metric("detection_spans", float64(detections))
	r.metric("migrate_mbs_clean", migRate(base))
	r.metric("migrate_mbs_scrubbed", migRate(dirty))
	r.metric("scrub_tax", tax)
	r.metric("scrub_read_mbs", scrubRate)
	r.Telemetry = dirty.snap
	r.Flight = dirty.flight
	r.Detail = dirty.scrub
	return r
}
