package experiments

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/chunkfs"
	"repro/internal/hsm"
	"repro/internal/pftool"
	"repro/internal/stats"
	"repro/internal/synthetic"
)

// largeFileSweep is E8 (§4.1.2(3)): a single large file copied N-to-1
// with an increasing worker count. The speedup saturates at the
// bottleneck pipe, exactly as striped parallel I/O should.
func largeFileSweep(seed int64) Report {
	return largeFileSweepWith(seed, 40e9, []int{1, 2, 4, 8, 16, 32})
}

// largeFileSweepWith runs E8 for one file size across worker counts.
func largeFileSweepWith(seed int64, fileSize int64, workers []int) Report {
	runWith := func(nw int) (time.Duration, float64) {
		var res pftool.Result
		runSystem(nil, func(sys *archive.System) {
			sys.Scratch.MkdirAll("/src")
			sys.Scratch.WriteFile("/src/big", synthetic.NewUniform(uint64(seed), fileSize))
			tun := pftool.DefaultTunables()
			tun.NumWorkers = nw
			tun.ChunkSize = fileSize / 32
			if tun.ChunkSize < 1e9 {
				tun.ChunkSize = 1e9
			}
			var err error
			res, err = sys.Pfcp("/src/big", "/dst/big", tun)
			if err != nil {
				panic(err)
			}
		})
		return res.Elapsed(), res.Rate() / 1e6
	}
	t := stats.NewTable("workers", "elapsed", "MB/s", "speedup")
	r := Report{
		Name:  "largefile",
		Title: fmt.Sprintf("Single %d GB file, N-to-1 chunked parallel copy (§4.1.2(3))", fileSize/1e9),
	}
	var base float64
	for _, nw := range workers {
		el, rate := runWith(nw)
		if base == 0 {
			base = rate
		}
		t.Row(nw, el.String(), rate, rate/base)
		r.metric(fmt.Sprintf("mbs_w%d", nw), rate)
	}
	r.Body = t.String()
	r.Notes = append(r.Notes, "speedup saturates at the slowest shared pipe (node NIC / trunk / pool)")
	return r
}

// veryLargeNtoN is E9 (§4.1.2(4)): the ArchiveFUSE N-to-N path against
// plain N-to-1 for a very large file.
func veryLargeNtoN(seed int64) Report {
	return veryLargeNtoNWith(seed, 200e9)
}

// veryLargeNtoNWith runs E9 for one file size: both paths land the file
// on the archive at trunk speed, but the FUSE chunk layout then
// migrates to tape across many drives in parallel while the single
// inode is one tape object on one drive — the paper's reason for
// converting "an N-to-1 parallel I/O operation into an N-to-N".
func veryLargeNtoNWith(seed int64, fileSize int64) Report {
	run := func(fuse bool) (pftool.Result, bool, time.Duration) {
		var res pftool.Result
		var chunked bool
		var migrateTime time.Duration
		runSystem(nil, func(sys *archive.System) {
			clock := sys.Clock
			sys.Scratch.MkdirAll("/src")
			sys.Scratch.WriteFile("/src/huge", synthetic.NewUniform(uint64(seed), fileSize))
			tun := pftool.DefaultTunables()
			if fuse {
				tun.VeryLargeThreshold = 100e9
				tun.FuseChunkSize = 16e9
			} else {
				tun.VeryLargeThreshold = fileSize * 2 // forces the N-to-1 path
				tun.ChunkSize = 16e9
			}
			var err error
			res, err = sys.Pfcp("/src/huge", "/dst/huge", tun)
			if err != nil {
				panic(err)
			}
			chunked = sys.Archive.Exists(chunkfs.ChunkDir("/dst/huge"))
			// The tape stage: migrate whatever landed on the archive.
			start := clock.Now()
			if _, err := sys.MigrateTree("/dst", hsm.MigrateOptions{Balanced: true}); err != nil {
				panic(err)
			}
			migrateTime = clock.Now() - start
		})
		return res, chunked, migrateTime
	}
	nto1, _, nto1Mig := run(false)
	fuse, chunkedDst, fuseMig := run(true)

	t := stats.NewTable("path", "copy elapsed", "copy MB/s", "tape migration", "dst layout")
	layout := "single inode -> 1 tape object, 1 drive"
	t.Row("N-to-1 chunked (single destination inode)", nto1.Elapsed().String(), nto1.Rate()/1e6, nto1Mig.String(), layout)
	layout = "chunk files -> parallel tape objects"
	if !chunkedDst {
		layout = "single inode (unexpected)"
	}
	t.Row("N-to-N via ArchiveFUSE chunk files", fuse.Elapsed().String(), fuse.Rate()/1e6, fuseMig.String(), layout)
	r := Report{
		Name:  "verylarge",
		Title: fmt.Sprintf("Very large file (%d GB): N-to-1 vs ArchiveFUSE N-to-N (§4.1.2(4))", fileSize/1e9),
		Body:  t.String(),
		Notes: []string{
			"both paths copy at trunk speed; the FUSE layout pays off at the tape stage, where chunk files migrate on many drives in parallel instead of streaming one object through one drive",
		},
	}
	r.metric("nto1_mbs", nto1.Rate()/1e6)
	r.metric("fuse_mbs", fuse.Rate()/1e6)
	r.metric("nto1_migrate_s", nto1Mig.Seconds())
	r.metric("fuse_migrate_s", fuseMig.Seconds())
	return r
}

// restartableTransfer is E10 (§4.5): fail a very large transfer partway
// and resume; only un-sent chunks move the second time.
func restartableTransfer(seed int64) Report {
	return restartableTransferWith(seed, 40e9, 4e9, 6)
}

// restartableTransferWith runs E10: a file of fileSize in chunks of
// chunkSize, failing at failAtChunk on the first attempt.
func restartableTransferWith(seed int64, fileSize, chunkSize int64, failAtChunk int) Report {
	var first, resume pftool.Result
	var firstErr error
	var resumedOK bool
	runSystem(nil, func(sys *archive.System) {
		content := synthetic.NewUniform(uint64(seed), fileSize)
		sys.Scratch.MkdirAll("/src")
		sys.Scratch.WriteFile("/src/big", content)
		tun := pftool.DefaultTunables()
		tun.ChunkSize = chunkSize
		// Fewer workers than chunks so the first attempt makes visible
		// partial progress before the failure aborts it.
		tun.NumWorkers = 4
		failed := false
		tun.InjectFault = func(dst string, chunk int) bool {
			if chunk == failAtChunk && !failed {
				failed = true
				return true
			}
			return false
		}
		// No error-to-panic here: the injected first attempt fails by design.
		first, firstErr = sys.Pfcp("/src/big", "/dst/big", tun)

		tun2 := pftool.DefaultTunables()
		tun2.ChunkSize = chunkSize
		tun2.Restart = true
		var err error
		resume, err = sys.Pfcp("/src/big", "/dst/big", tun2)
		if err != nil {
			panic(err)
		}
		got, err := sys.Archive.ReadContent("/dst/big")
		resumedOK = err == nil && got.Equal(content)
	})

	totalChunks := int(fileSize / chunkSize)
	t := stats.NewTable("attempt", "chunks copied", "chunks skipped", "bytes moved", "outcome")
	outcome := "failed (injected)"
	if firstErr == nil {
		outcome = "unexpected success"
	}
	t.Row("first (fails mid-transfer)", first.ChunksCopied, first.ChunksSkipped, first.BytesCopied, outcome)
	outcome = "complete, content verified"
	if !resumedOK {
		outcome = "CONTENT MISMATCH"
	}
	t.Row("resume with chunk marks", resume.ChunksCopied, resume.ChunksSkipped, resume.BytesCopied, outcome)
	r := Report{
		Name:  "restart",
		Title: "Restart-able file transfer via good/bad chunk marks (§4.5)",
		Body:  t.String(),
		Notes: []string{
			fmt.Sprintf("%d chunks total; a restart re-sends only what the first attempt did not finish", totalChunks),
		},
	}
	r.metric("first_chunks", float64(first.ChunksCopied))
	r.metric("resume_skipped", float64(resume.ChunksSkipped))
	r.metric("resume_copied", float64(resume.ChunksCopied))
	r.metric("content_ok", b2f(resumedOK))
	return r
}
