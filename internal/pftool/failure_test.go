package pftool

import (
	"strings"
	"testing"
	"time"

	"repro/internal/synthetic"
)

// TestJournalResumeSkipsCompletedFiles interrupts a pfcp mid-run and
// resumes it with the same restart journal: the resumed run must skip
// exactly the files the first run completed and copy only the rest.
func TestJournalResumeSkipsCompletedFiles(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		sizes := make([]int64, 8)
		for i := range sizes {
			sizes[i] = 2e9
		}
		paths := seedTree(t, e.scratch, "/src", sizes)

		j := NewJournal()
		req := baseRequest(e, OpCopy)
		req.Tunables.Journal = j
		req.Tunables.CopyBatchFiles = 1 // one file per job so the fault hits between files
		req.Tunables.NumWorkers = 2
		failed := false
		req.Tunables.InjectFault = func(dst string, chunk int) bool {
			// Fail the first copy dispatched after some real progress, so
			// the journal holds a partial run when the job dies.
			if !failed && e.clock.Now() > 3*time.Second {
				failed = true
				return true
			}
			return false
		}
		if _, err := Run(req); err == nil {
			t.Fatal("expected the injected fault to abort the run")
		}
		completed := j.Len()
		if completed == 0 || completed == len(paths) {
			t.Fatalf("journal holds %d of %d files; want a partial run", completed, len(paths))
		}

		// Resume with the same journal and no fault.
		req2 := baseRequest(e, OpCopy)
		req2.Tunables.Journal = j
		req2.Tunables.CopyBatchFiles = 1
		req2.Tunables.NumWorkers = 2
		res, err := Run(req2)
		if err != nil {
			t.Fatalf("resumed run failed: %v", err)
		}
		if res.JournalSkipped != completed {
			t.Errorf("JournalSkipped = %d, want %d (the first run's completions)", res.JournalSkipped, completed)
		}
		if res.FilesCopied != len(paths)-completed {
			t.Errorf("FilesCopied = %d, want %d (only the remainder)", res.FilesCopied, len(paths)-completed)
		}
		for _, p := range paths {
			dst := "/dst" + strings.TrimPrefix(p, "/src")
			src, _ := e.scratch.ReadContent(p)
			got, err := e.archive.ReadContent(dst)
			if err != nil {
				t.Fatalf("dst %s: %v", dst, err)
			}
			if !got.Equal(src) {
				t.Errorf("content mismatch at %s after resume", dst)
			}
		}
	})
}

// TestJournalRecordsChunkedFileOnlyWhenComplete: a chunked file enters
// the journal only once every chunk has landed, so a resumed run still
// repairs the missing chunks (via the per-chunk marks) instead of
// skipping a half-written file.
func TestJournalRecordsChunkedFileOnlyWhenComplete(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		e.scratch.MkdirAll("/src")
		content := synthetic.NewUniform(11, 40e9) // 10 chunks at 4 GB
		e.scratch.WriteFile("/src/big", content)

		j := NewJournal()
		req := baseRequest(e, OpCopy)
		req.Tunables.Journal = j
		failed := false
		req.Tunables.InjectFault = func(dst string, chunk int) bool {
			if chunk == 6 && !failed {
				failed = true
				return true
			}
			return false
		}
		if _, err := Run(req); err == nil {
			t.Fatal("expected injected failure")
		}
		if j.isDone("/dst/big") || j.Len() != 0 {
			t.Fatalf("half-copied file reached the journal: %d entries", j.Len())
		}

		// Resume: chunk marks skip the good chunks, and completion now
		// lands the file in the journal.
		req2 := baseRequest(e, OpCopy)
		req2.Tunables.Journal = j
		req2.Tunables.Restart = true
		res, err := Run(req2)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksSkipped == 0 || res.FilesCopied != 1 {
			t.Errorf("resume res = %+v", res)
		}
		if !j.isDone("/dst/big") {
			t.Error("completed chunked file missing from the journal")
		}
		got, _ := e.archive.ReadContent("/dst/big")
		if !got.Equal(content) {
			t.Error("content mismatch after resume")
		}

		// A third run prunes the file outright.
		req3 := baseRequest(e, OpCopy)
		req3.Tunables.Journal = j
		res3, err := Run(req3)
		if err != nil {
			t.Fatal(err)
		}
		if res3.JournalSkipped != 1 || res3.ChunksCopied != 0 || res3.FilesCopied != 0 {
			t.Errorf("third run res = %+v, want pure journal skip", res3)
		}
	})
}

// TestWorkerNodeCrashRequeuesJobs kills one FTA machine mid-copy: the
// WatchDog declares its ranks dead, the Manager requeues their jobs on
// survivors, and the run still copies every file exactly once.
func TestWorkerNodeCrashRequeuesJobs(t *testing.T) {
	e := newEnv()
	// Crash the machine hosting the first worker rank, mid-run.
	layout := layoutFor(tunablesForTest())
	victim := layout.workers[0] % len(e.cl.Nodes())
	e.clock.At(10*time.Second, func() { e.cl.Nodes()[victim].SetDown(true) })
	e.run(t, func() {
		sizes := make([]int64, 40)
		for i := range sizes {
			sizes[i] = 2e9
		}
		paths := seedTree(t, e.scratch, "/src", sizes)
		req := baseRequest(e, OpCopy)
		req.Tunables.CopyBatchFiles = 4
		req.Tunables.WatchdogInterval = 5 * time.Second
		res, err := Run(req)
		if err != nil {
			t.Fatalf("copy with node crash failed: %v", err)
		}
		if res.RanksDied == 0 {
			t.Error("no rank was declared dead")
		}
		if res.FilesCopied != 40 {
			t.Errorf("FilesCopied = %d, want 40", res.FilesCopied)
		}
		for i, p := range paths {
			dst := "/dst" + strings.TrimPrefix(p, "/src")
			got, err := e.archive.ReadContent(dst)
			if err != nil {
				t.Fatalf("dst %s: %v", dst, err)
			}
			src, _ := e.scratch.ReadContent(p)
			if !got.Equal(src) {
				t.Errorf("content mismatch at %s (file %d)", dst, i)
			}
		}
	})
}

// TestAllMachinesDeadFailsCleanly: when every FTA machine is down the
// run must fail with an explicit error, not hang until the stall
// timeout or loop forever.
func TestAllMachinesDeadFailsCleanly(t *testing.T) {
	e := newEnv()
	e.clock.Go(func() {
		seedTree(t, e.scratch, "/src", []int64{1e9, 2e9, 3e9})
		for _, n := range e.cl.Nodes() {
			n.SetDown(true)
		}
		req := baseRequest(e, OpCopy)
		req.Tunables.WatchdogInterval = 5 * time.Second
		res, err := Run(req)
		if err == nil {
			t.Error("run with every machine dead should fail")
		}
		if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "died") {
			t.Errorf("Errors = %v, want a rank-death error", res.Errors)
		}
		if res.RanksDied == 0 {
			t.Error("no ranks counted dead")
		}
	})
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCompareJournalResume: pfcm is restartable through the same
// journal — files compared once are pruned from a rerun.
func TestCompareJournalResume(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{1e6, 2e6, 3e6})
		if _, err := Run(baseRequest(e, OpCopy)); err != nil {
			t.Fatal(err)
		}
		j := NewJournal()
		req := baseRequest(e, OpCompare)
		req.Tunables.Journal = j
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != 3 || j.Len() != 3 {
			t.Fatalf("first compare: res = %+v, journal = %d", res, j.Len())
		}
		req2 := baseRequest(e, OpCompare)
		req2.Tunables.Journal = j
		res2, err := Run(req2)
		if err != nil {
			t.Fatal(err)
		}
		if res2.JournalSkipped != 3 || res2.Matched != 0 {
			t.Errorf("resumed compare: res = %+v, want all journal-skipped", res2)
		}
	})
}
