package pftool

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestRankDeathAbortsJobSpans kills one FTA machine mid-copy and
// checks the telemetry story: the WatchDog declares its ranks dead,
// and every job span dispatched to them must be closed as aborted —
// not leaked open — while the run span itself still ends ok (the
// survivors finish the work).
func TestRankDeathAbortsJobSpans(t *testing.T) {
	e := newEnv()
	layout := layoutFor(tunablesForTest())
	victim := layout.workers[0] % len(e.cl.Nodes())
	e.clock.At(10*time.Second, func() { e.cl.Nodes()[victim].SetDown(true) })
	tel := telemetry.Of(e.clock)
	e.run(t, func() {
		sizes := make([]int64, 40)
		for i := range sizes {
			sizes[i] = 2e9
		}
		seedTree(t, e.scratch, "/src", sizes)
		req := baseRequest(e, OpCopy)
		req.Tunables.CopyBatchFiles = 4
		req.Tunables.WatchdogInterval = 5 * time.Second
		res, err := Run(req)
		if err != nil {
			t.Fatalf("copy with node crash failed: %v", err)
		}
		if res.RanksDied == 0 {
			t.Fatal("no rank was declared dead")
		}

		dump := tel.FlightDump()
		var aborted, abortedJobs int
		for _, sp := range dump.Aborted() {
			aborted++
			if sp.Name == "pftool.job" {
				abortedJobs++
				if !strings.Contains(sp.Cause, "died") {
					t.Errorf("aborted job span cause = %q, want a rank-death cause", sp.Cause)
				}
			}
		}
		if abortedJobs < res.RanksDied {
			t.Errorf("%d aborted pftool.job spans for %d dead ranks", abortedJobs, res.RanksDied)
		}
		for _, sp := range dump.Spans {
			if sp.Name == "pftool.run" && sp.Status != "ok" {
				t.Errorf("run span status = %q, want ok (survivors finished the copy)", sp.Status)
			}
		}
		if open := tel.FlightSince(0).Open; len(open) != 0 {
			t.Errorf("%d spans leaked open after the run: %v", len(open), open)
		}
		if got := tel.Counter("pftool_ranks_died_total").Value(); got != float64(res.RanksDied) {
			t.Errorf("pftool_ranks_died_total = %v, want %d", got, res.RanksDied)
		}
	})
}

// TestRunCountersMatchResult: the registry's counters for a clean copy
// must agree exactly with the result struct — they are bumped at the
// same program points.
func TestRunCountersMatchResult(t *testing.T) {
	e := newEnv()
	tel := telemetry.Of(e.clock)
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", []int64{1e6, 5e6, 100, 42e6, 3e3, 7e6})
		res, err := Run(baseRequest(e, OpCopy))
		if err != nil {
			t.Fatal(err)
		}
		snap := tel.Snapshot()
		if got := snap.Value("pftool_bytes_copied_total", "op", "pfcp"); got != float64(res.BytesCopied) {
			t.Errorf("bytes counter = %v, result %d", got, res.BytesCopied)
		}
		if got := snap.Value("pftool_files_copied_total", "op", "pfcp"); got != float64(res.FilesCopied) {
			t.Errorf("files counter = %v, result %d", got, res.FilesCopied)
		}
		if fam := snap.Family("pftool_file_bytes"); len(fam) == 0 || fam[0].Count != float64(res.FilesCopied) {
			t.Errorf("file-size histogram = %+v, want count %d", fam, res.FilesCopied)
		}
		if n := len(tel.FlightSince(0).Open); n != 0 {
			t.Errorf("%d spans leaked open after a clean run", n)
		}
	})
}
