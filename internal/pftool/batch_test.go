package pftool

import (
	"testing"
	"time"
)

// sameSizes is n file sizes of size bytes each, for seedTree.
func sameSizes(n int, size int64) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// TestSmallFilesBillPerBatch copies and then compares 20,000 x 64 KB
// files and holds the engine cost of both to a clock-event budget far
// below one event per file: a worker bills a batch's metadata once, on
// either side, instead of sleeping per file. The Results are pinned to
// what per-file billing produced, to the nanosecond: with the metadata
// service uncontended, when the bill is paid changes nothing virtual.
func TestSmallFilesBillPerBatch(t *testing.T) {
	const (
		files = 20_000
		size  = 64_000
	)
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", sameSizes(files, size))
		for _, tc := range []struct {
			op       Op
			elapsed  time.Duration
			messages int
		}{
			{OpCopy, 1603846795, 100},
			{OpCompare, 2286643586, 100},
		} {
			before := e.clock.EventsProcessed()
			res, err := Run(baseRequest(e, tc.op))
			if err != nil {
				t.Fatal(err)
			}
			perFile := float64(e.clock.EventsProcessed()-before) / files
			if perFile > 0.05 {
				t.Errorf("%v: %.3f clock events per file, want <= 0.05", tc.op, perFile)
			}
			if res.Elapsed() != tc.elapsed || res.Messages != tc.messages {
				t.Errorf("%v: elapsed %d ns with %d messages, want %d ns with %d",
					tc.op, res.Elapsed(), res.Messages, tc.elapsed, tc.messages)
			}
			switch tc.op {
			case OpCopy:
				if res.FilesCopied != files || res.BytesCopied != files*size {
					t.Errorf("pfcp: %d files, %d bytes; want %d, %d",
						res.FilesCopied, res.BytesCopied, files, files*size)
				}
			case OpCompare:
				if res.Matched != files || res.Mismatched != 0 || res.Missing != 0 {
					t.Errorf("pfcm: %d matched, %d mismatched, %d missing; want all %d matched",
						res.Matched, res.Mismatched, res.Missing, files)
				}
			}
		}
	})
}

// TestFaultMidBatchBillsFilesAhead: the fault hook runs as a pre-pass,
// but a fault on the fifth file of a batch still lets the four files
// ahead of it be read — and their metadata billed — before the job
// fails, so the failed run reports and costs what it always did.
func TestFaultMidBatchBillsFilesAhead(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		seedTree(t, e.scratch, "/src", sameSizes(10, 64_000))
		req := baseRequest(e, OpCopy)
		calls := 0
		req.Tunables.InjectFault = func(dst string, chunk int) bool {
			calls++
			return calls == 5
		}
		res, err := Run(req)
		if err == nil || len(res.Errors) != 1 || res.Errors[0] != "injected fault copying /dst/a/f008" {
			t.Fatalf("err = %v, errors = %q; want the injected fault on a/f008", err, res.Errors)
		}
		if res.FilesCopied != 4 || res.BytesCopied != 4*64_000 {
			t.Errorf("%d files, %d bytes reported; want the 4 files read ahead of the fault", res.FilesCopied, res.BytesCopied)
		}
		if want := 2 * time.Millisecond; res.Elapsed() != want {
			t.Errorf("elapsed %v, want %v (4 source reads billed)", res.Elapsed(), want)
		}
		if entries, _ := e.archive.ReadDir("/dst/a"); len(entries) != 0 {
			t.Errorf("%d files landed from a failed batch, want none", len(entries))
		}
	})
}
