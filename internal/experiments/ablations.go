package experiments

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/hsm"
	"repro/internal/pftool"
	"repro/internal/stats"
	"repro/internal/synthetic"
	"repro/internal/tsm"
	"repro/internal/workload"
)

// The ablations quantify the design choices DESIGN.md calls out: each
// switches one mechanism off and measures what the paper's glue buys.

// ablationCoLocation measures TSM co-location groups (§4.2.2): with
// them a project's files share volumes and recall mounts few tapes;
// without them files scatter and recall mounts many.
func ablationCoLocation(seed int64) Report {
	run := func(colocate bool) (volumes int, recallTime time.Duration) {
		runSystem(func(opts *archive.Options) {
			opts.TapeDrives = 8
			if colocate {
				opts.HSM.Group = "project-x"
			}
		}, func(sys *archive.System) {
			clock := sys.Clock
			infos := seedArchiveFiles(sys, "/proj", 120, 400e6)
			// Interleave with a competing project so scatter has
			// somewhere to go: stores from other groups rotate volumes.
			if _, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: false}); err != nil {
				panic(err)
			}
			vols := make(map[string]bool)
			for _, f := range infos {
				if rec, err := sys.Shadow.ByFileID(uint64(f.ID)); err == nil {
					vols[rec.Volume] = true
				}
			}
			volumes = len(vols)
			paths := make([]string, len(infos))
			for i, f := range infos {
				paths[i] = f.Path
			}
			start := clock.Now()
			if _, err := sys.HSM.Recall(paths, hsm.RecallOrdered); err != nil {
				panic(err)
			}
			recallTime = clock.Now() - start
		})
		return volumes, recallTime
	}
	scatterVols, scatterT := run(false)
	colocVols, colocT := run(true)
	t := stats.NewTable("placement", "volumes used", "ordered recall")
	t.Row("no co-location (per-mover scratch volumes)", scatterVols, scatterT.String())
	t.Row("co-location group per project", colocVols, colocT.String())
	r := Report{
		Name:  "ablation-colocation",
		Title: "Ablation: TSM co-location groups (§4.2.2)",
		Body:  t.String(),
	}
	r.metric("scatter_volumes", float64(scatterVols))
	r.metric("coloc_volumes", float64(colocVols))
	r.metric("scatter_recall_s", scatterT.Seconds())
	r.metric("coloc_recall_s", colocT.Seconds())
	return r
}

// ablationChunkSize sweeps PFTool's ChunkSize tunable (§4.1.2(5)) for a
// single large file: too large starves workers, too small spends
// scheduling overhead; the default sits on the flat part of the curve.
func ablationChunkSize(seed int64) Report {
	const fileSize = int64(40e9)
	t := stats.NewTable("chunk size", "chunks", "elapsed", "MB/s")
	r := Report{
		Name:  "ablation-chunksize",
		Title: "Ablation: N-to-1 chunk size for a 40 GB file (§4.1.2(5))",
	}
	for _, cs := range []int64{fileSize, 16e9, 4e9, 1e9, 256e6} {
		var res pftool.Result
		runSystem(nil, func(sys *archive.System) {
			sys.Scratch.MkdirAll("/src")
			sys.Scratch.WriteFile("/src/big", synthetic.NewUniform(uint64(seed), fileSize))
			tun := pftool.DefaultTunables()
			tun.ChunkSize = cs
			tun.LargeFileThreshold = 1e9
			tun.VeryLargeThreshold = fileSize * 2
			var err error
			res, err = sys.Pfcp("/src/big", "/dst/big", tun)
			if err != nil {
				panic(err)
			}
		})
		nChunks := int((fileSize + cs - 1) / cs)
		t.Row(fmt.Sprintf("%d MB", cs/1e6), nChunks, res.Elapsed().String(), res.Rate()/1e6)
		r.metric(fmt.Sprintf("mbs_cs%d", cs/1e6), res.Rate()/1e6)
	}
	r.Body = t.String()
	return r
}

// ablationBatching sweeps the small-file copy batch size. The data
// path is identical either way (the trunk carries the same bytes); the
// cost of per-file jobs is Manager coordination — thousands of MPI
// messages and per-file metadata round trips instead of a handful.
func ablationBatching(seed int64) Report {
	run := func(batchBytes int64, batchFiles int) (time.Duration, float64, int) {
		var res pftool.Result
		runSystem(nil, func(sys *archive.System) {
			spec := workload.JobSpec{ID: 1, Project: "p", NumFiles: 5000, TotalBytes: 5e9, AvgFileSize: 1e6}
			if _, err := workload.BuildTree(sys.Scratch, "/src", spec, seed, 1024); err != nil {
				panic(err)
			}
			tun := pftool.DefaultTunables()
			tun.CopyBatchBytes = batchBytes
			tun.CopyBatchFiles = batchFiles
			var err error
			res, err = sys.Pfcp("/src", "/dst", tun)
			if err != nil {
				panic(err)
			}
		})
		return res.Elapsed(), res.Rate() / 1e6, res.Messages
	}
	t := stats.NewTable("batching", "elapsed", "MB/s", "MPI messages")
	r := Report{
		Name:  "ablation-batching",
		Title: "Ablation: small-file copy batching (5000 x 1 MB files)",
	}
	for _, cfg := range []struct {
		label string
		bytes int64
		files int
	}{
		{"1 file per job (no batching)", 1, 1},
		{"16 MB / 32-file batches", 16e6, 32},
		{"256 MB / 512-file batches (default)", 256e6, 512},
	} {
		el, rate, msgs := run(cfg.bytes, cfg.files)
		t.Row(cfg.label, el.String(), rate, msgs)
		r.metric(fmt.Sprintf("mbs_%d", cfg.files), rate)
		r.metric(fmt.Sprintf("msgs_%d", cfg.files), float64(msgs))
	}
	r.Body = t.String()
	r.Notes = append(r.Notes,
		"virtual data time is trunk-bound either way; batching removes the Manager's per-file coordination traffic")
	return r
}

// ablationLANFree measures the LAN-free data path (§4.2.2) at the
// paper's drive count: with it each mover streams to its own drive;
// without it all data squeezes through the server NIC.
func ablationLANFree(seed int64) Report {
	elapsed := func(lanFree bool) time.Duration {
		return runSystem(func(opts *archive.Options) { opts.TSM.LANFree = lanFree }, func(sys *archive.System) {
			// 48 x 40 GB across 30 mover streams: the tape fleet can
			// absorb ~2.4 GB/s LAN-free, but the ~1.18 GB/s server NIC
			// cannot; with this much data per stream the streaming
			// phase (not mounts) sets the finish time.
			infos := seedArchiveFiles(sys, "/mig", 48, 40e9)
			if _, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: true, StreamsPerNode: 3}); err != nil {
				panic(err)
			}
		}).end
	}
	with := elapsed(true)
	without := elapsed(false)
	t := stats.NewTable("data path", "migrate 1.92 TB", "aggregate MB/s")
	t.Row("LAN-free (mover -> SAN -> drive)", with.String(), 1920e3/with.Seconds())
	t.Row("server-mediated (all data via TSM NIC)", without.String(), 1920e3/without.Seconds())
	r := Report{
		Name:  "ablation-lanfree",
		Title: "Ablation: LAN-free movers vs server-mediated data path (§4.2.2)",
		Body:  t.String(),
	}
	r.metric("lanfree_s", with.Seconds())
	r.metric("central_s", without.Seconds())
	r.metric("slowdown", without.Seconds()/with.Seconds())
	return r
}

// reclamation demonstrates volume space reclaim after synchronous
// deletes: logical deletes leave dead bytes on tape until reclamation
// consolidates the survivors.
func reclamation(seed int64) Report {
	var before, after float64
	var res tsm.ReclaimResult
	runSystem(func(opts *archive.Options) { opts.TapeDrives = 4 }, func(sys *archive.System) {
		infos := seedArchiveFiles(sys, "/proj", 40, 2e9)
		if _, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: true}); err != nil {
			panic(err)
		}
		// Users delete three quarters of the files through the
		// trashcan; the synchronous deleter reaps both sides.
		can, err := sys.TrashCan()
		if err != nil {
			panic(err)
		}
		for _, f := range infos[:30] {
			if _, err := can.Delete("alice", f.Path); err != nil {
				panic(err)
			}
		}
		if _, err := sys.Deleter.Purge(can); err != nil {
			panic(err)
		}
		var used, live int64
		for _, c := range sys.Library.Cartridges() {
			used += c.Used()
		}
		for _, o := range sys.TSM.LiveObjects() {
			live += o.Bytes
		}
		before = float64(live) / float64(used)
		res, err = sys.TSM.ReclaimThreshold("fta01", 0.6)
		if err != nil {
			panic(err)
		}
		used = 0
		for _, c := range sys.Library.Cartridges() {
			used += c.Used()
		}
		after = float64(live) / float64(used)
	})
	t := stats.NewTable("metric", "value")
	t.Row("tape live fraction before reclaim", before)
	t.Row("volumes reclaimed", res.VolumesReclaimed)
	t.Row("objects moved", res.ObjectsMoved)
	t.Row("bytes freed (GB)", stats.GB(float64(res.BytesFreed)))
	t.Row("tape live fraction after reclaim", after)
	t.Row("reclaim elapsed", res.Elapsed.String())
	r := Report{
		Name:  "reclaim",
		Title: "Volume reclamation after synchronous deletes",
		Body:  t.String(),
		Notes: []string{
			"the synchronous deleter frees the namespace immediately; tape blocks come back only when reclamation consolidates survivors",
		},
	}
	r.metric("live_before", before)
	r.metric("live_after", after)
	r.metric("bytes_freed_gb", stats.GB(float64(res.BytesFreed)))
	return r
}
