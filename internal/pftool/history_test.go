package pftool

import (
	"strings"
	"testing"
	"time"
)

// TestWatchdogHistoryRecordsProgress checks the §4.1.1(3) statistics:
// a long enough copy produces monotone per-interval samples that end
// near the final totals.
func TestWatchdogHistoryRecordsProgress(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		sizes := make([]int64, 50)
		for i := range sizes {
			sizes[i] = 4e9
		}
		seedTree(t, e.scratch, "/src", sizes)
		req := baseRequest(e, OpCopy)
		req.Tunables.WatchdogInterval = 10 * time.Second
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		// 200 GB at <= 1.87 GB/s is > 100s: at least 9 samples.
		if len(res.History) < 5 {
			t.Fatalf("history has %d points, want several (elapsed %v)", len(res.History), res.Elapsed())
		}
		for i := 1; i < len(res.History); i++ {
			prev, cur := res.History[i-1], res.History[i]
			if cur.At <= prev.At {
				t.Errorf("sample %d time not increasing", i)
			}
			if cur.Bytes < prev.Bytes || cur.Files < prev.Files {
				t.Errorf("sample %d totals decreased", i)
			}
		}
		last := res.History[len(res.History)-1]
		if last.Bytes > res.BytesCopied {
			t.Errorf("history bytes %d exceed final %d", last.Bytes, res.BytesCopied)
		}
		if last.Bytes == 0 {
			t.Error("history never observed progress")
		}
	})
}

func TestReportRendersAllSections(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		sizes := make([]int64, 30)
		for i := range sizes {
			sizes[i] = 4e9
		}
		seedTree(t, e.scratch, "/src", sizes)
		req := baseRequest(e, OpCopy)
		req.Tunables.WatchdogInterval = 10 * time.Second
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report()
		for _, want := range []string{"files copied", "avg rate", "interval history", "MB/s this interval", "mpi messages"} {
			if !strings.Contains(rep, want) {
				t.Errorf("report missing %q:\n%s", want, rep)
			}
		}
	})
}

// TestHistoryEmptyForFastJobs: a job finishing inside one interval has
// no samples — the WatchDog never woke while it ran.
func TestHistoryEmptyForFastJobs(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{100})
		res, err := Run(baseRequest(e, OpCopy))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != 0 {
			t.Errorf("history = %d points for a sub-interval job", len(res.History))
		}
	})
}
