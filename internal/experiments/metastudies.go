package experiments

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/hsm"
	"repro/internal/ilm"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/synthetic"
	"repro/internal/workload"
)

// syncDeleteVsReconcile is E11 (§4.2.6–4.2.7, §6.3): deleting migrated
// files through the trashcan + synchronous deleter against the
// tree-walk reconciliation baseline, across growing populations.
func syncDeleteVsReconcile(seed int64) Report {
	return syncDeleteVsReconcileWith(seed, []int{1000, 10000, 50000}, 20)
}

// syncDeleteVsReconcileWith runs E11 for the given population sizes and
// victim count.
func syncDeleteVsReconcileWith(seed int64, populations []int, victims int) Report {
	t := stats.NewTable("population", "sync delete", "reconcile", "ratio")
	r := Report{
		Name:  "delete",
		Title: "Synchronous delete vs reconciliation (§4.2.6, §6.3)",
	}
	for _, pop := range populations {
		var syncT, reconT time.Duration
		runSystem(nil, func(sys *archive.System) {
			clock := sys.Clock
			// Population of resident files (cheap, bulk-created).
			sys.Archive.MkdirAll("/pop")
			const perDir = 4096
			var specs []pfs.FileSpec
			for i := 0; i < pop; i++ {
				if i%perDir == 0 {
					if len(specs) > 0 {
						sys.Archive.WriteFiles(specs)
						specs = specs[:0]
					}
					sys.Archive.MkdirAll(fmt.Sprintf("/pop/d%03d", i/perDir))
				}
				specs = append(specs, pfs.FileSpec{
					Path:    fmt.Sprintf("/pop/d%03d/f%06d", i/perDir, i),
					Content: synthetic.NewUniform(uint64(i+1), 100),
				})
			}
			if len(specs) > 0 {
				sys.Archive.WriteFiles(specs)
			}
			// Migrated victims deleted through the trashcan.
			infos := seedArchiveFiles(sys, "/victims", victims, 100e6)
			if _, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: true}); err != nil {
				panic(err)
			}
			can, err := sys.TrashCan()
			if err != nil {
				panic(err)
			}
			for _, f := range infos {
				if _, err := can.Delete("alice", f.Path); err != nil {
					panic(err)
				}
			}
			start := clock.Now()
			if _, err := sys.Deleter.Purge(can); err != nil {
				panic(err)
			}
			syncT = clock.Now() - start

			// The baseline: reconcile the whole namespace.
			start = clock.Now()
			if _, err := sys.Recon.Reconcile(); err != nil {
				panic(err)
			}
			reconT = clock.Now() - start
		})
		ratio := 0.0
		if syncT > 0 {
			ratio = reconT.Seconds() / syncT.Seconds()
		}
		t.Row(pop, syncT.String(), reconT.String(), ratio)
		r.metric(fmt.Sprintf("ratio_pop%d", pop), ratio)
	}
	r.Body = t.String()
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d migrated victims in every case; reconcile cost grows with the total population, sync delete does not", victims))
	return r
}

// migratorBalance is E12 (§4.2.4): the size-balanced parallel data
// migrator against the GPFS policy engine's position-based spread.
func migratorBalance(seed int64) Report {
	return migratorBalanceWith(seed, 6, 60)
}

// migratorBalanceWith runs E12 with the given number of huge files and
// small files.
func migratorBalanceWith(seed int64, hugeFiles, smallFiles int) Report {
	run := func(balanced bool) (time.Duration, time.Duration) {
		var makespan, spread time.Duration
		runSystem(nil, func(sys *archive.System) {
			clock := sys.Clock
			var infos []pfs.Info
			infos = append(infos, seedArchiveFiles(sys, "/huge", hugeFiles, 40e9)...)
			infos = append(infos, seedArchiveFiles(sys, "/small", smallFiles, 2e9)...)
			start := clock.Now()
			res, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: balanced})
			if err != nil {
				panic(err)
			}
			makespan = clock.Now() - start
			var min, max time.Duration
			first := true
			for i, f := range res.NodeFinish {
				if res.NodeBytes[i] == 0 {
					continue
				}
				if first || f < min {
					min = f
				}
				if first || f > max {
					max = f
				}
				first = false
			}
			spread = max - min
		})
		return makespan, spread
	}
	rrMake, rrSpread := run(false)
	balMake, balSpread := run(true)

	t := stats.NewTable("distribution", "makespan", "finish spread")
	t.Row("list-position round-robin (GPFS policy engine)", rrMake.String(), rrSpread.String())
	t.Row("size-balanced LPT (parallel data migrator)", balMake.String(), balSpread.String())
	r := Report{
		Name:  "migrate",
		Title: "Parallel data migrator load balance (§4.2.4)",
		Body:  t.String(),
		Notes: []string{
			"\"This allows the migrations to tape to complete at the same time across machines\"",
		},
	}
	r.metric("rr_makespan_s", rrMake.Seconds())
	r.metric("bal_makespan_s", balMake.Seconds())
	r.metric("speedup", rrMake.Seconds()/balMake.Seconds())
	return r
}

// inodeScan is E13 (§4.2.1): "GPFS can scan one million inodes in ten
// minutes".
func inodeScan(seed int64) Report {
	return inodeScanWith(seed, 1_000_000)
}

// inodeScanWith runs E13 over the given inode count.
func inodeScanWith(seed int64, inodes int) Report {
	var elapsed time.Duration
	var visited int
	runClock(func(clock *simtime.Clock) func() {
		cfg := pfs.GPFSConfig("gpfs")
		cfg.MetaOpCost = 0 // isolate the scan itself
		fs := pfs.New(clock, cfg)
		return func() {
			const perDir = 8192
			var specs []pfs.FileSpec
			for i := 0; fs.NumInodes() < inodes; i++ {
				if i%perDir == 0 {
					if len(specs) > 0 {
						fs.WriteFiles(specs)
						specs = specs[:0]
					}
					fs.MkdirAll(fmt.Sprintf("/d%04d", i/perDir))
				}
				specs = append(specs, pfs.FileSpec{
					Path:    fmt.Sprintf("/d%04d/f%07d", i/perDir, i),
					Content: synthetic.NewUniform(uint64(i), 1),
				})
				if len(specs) == perDir {
					fs.WriteFiles(specs)
					specs = specs[:0]
				}
			}
			if len(specs) > 0 {
				fs.WriteFiles(specs)
			}
			start := clock.Now()
			if _, err := ilm.RunList(fs, ilm.ListPolicy{Name: "scan", Where: ilm.IsFile()}); err != nil {
				panic(err)
			}
			visited = fs.NumInodes()
			elapsed = clock.Now() - start
		}
	})

	t := stats.NewTable("metric", "value")
	t.Row("inodes scanned", visited)
	t.Row("elapsed", elapsed.String())
	t.Row("rate (inodes/s)", float64(visited)/elapsed.Seconds())
	r := Report{
		Name:  "scan",
		Title: "Policy-engine inode scan (§4.2.1: 1M inodes in ~10 minutes)",
		Body:  t.String(),
	}
	r.metric("inodes", float64(visited))
	r.metric("seconds", elapsed.Seconds())
	return r
}

// scalingGap is E14 (Figure 1's Kiviat gap): parallel file systems
// scale bandwidth with node count while a non-parallel archive stays
// flat; the COTS parallel archive tracks the file-system curve.
func scalingGap(seed int64) Report {
	return scalingGapWith(seed, []int{1, 2, 4, 8, 10})
}

// scalingGapWith runs E14 across mover-node counts.
func scalingGapWith(seed int64, nodeCounts []int) Report {
	archiveRate := func(nodes int) float64 {
		var rate float64
		runSystem(func(opts *archive.Options) { opts.Cluster.Nodes = nodes }, func(sys *archive.System) {
			spec := workload.JobSpec{ID: 1, Project: "materials", NumFiles: 100, TotalBytes: 100e9, AvgFileSize: 1e9}
			if _, err := workload.BuildTree(sys.Scratch, "/src", spec, seed, 512); err != nil {
				panic(err)
			}
			res, err := sys.Pfcp("/src", "/dst", pftool.DefaultTunables())
			if err != nil {
				panic(err)
			}
			rate = res.Rate() / 1e6
		})
		return rate
	}
	serialRate := func() float64 {
		var rate float64
		runSystem(nil, func(sys *archive.System) {
			spec := workload.JobSpec{ID: 1, Project: "materials", NumFiles: 50, TotalBytes: 25e9, AvgFileSize: 500e6}
			if _, err := workload.BuildTree(sys.Scratch, "/src", spec, seed, 512); err != nil {
				panic(err)
			}
			res, err := archive.SerialArchiveBaseline(sys, "/src")
			if err != nil {
				panic(err)
			}
			rate = res.RateMBs
		})
		return rate
	}()

	t := stats.NewTable("mover nodes", "COTS parallel archive MB/s", "non-parallel archive MB/s")
	r := Report{
		Name:  "kiviat",
		Title: "Archive bandwidth scaling with mover nodes (Figure 1's gap, closed)",
	}
	for _, n := range nodeCounts {
		rate := archiveRate(n)
		t.Row(n, rate, serialRate)
		r.metric(fmt.Sprintf("mbs_n%d", n), rate)
	}
	r.Body = t.String()
	r.Notes = append(r.Notes,
		"the non-parallel archive is flat regardless of cluster size; the COTS archive scales with the mover fleet until the trunk saturates")
	r.metric("serial_mbs", serialRate)
	return r
}
