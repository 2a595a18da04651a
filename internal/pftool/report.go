package pftool

import (
	"fmt"
	"strings"
)

// Report renders the Manager's full end-of-job performance report
// (§4.1.1(m): "generates final statistics report"): the summary line,
// per-category counters, and the WatchDog's interval history with
// per-interval rates — the "number of bytes copied in the past T
// minutes" view the paper describes.
func (r Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Summary())
	w := func(label string, v interface{}) {
		fmt.Fprintf(&b, "  %-22s %v\n", label, v)
	}
	w("elapsed", r.Elapsed())
	switch r.Op {
	case OpList:
		w("files listed", r.FilesListed)
		w("dirs listed", r.DirsListed)
		w("bytes listed", r.BytesListed)
	case OpCompare:
		w("matched", r.Matched)
		w("mismatched", r.Mismatched)
		w("missing", r.Missing)
	default:
		w("files copied", r.FilesCopied)
		w("files skipped", r.FilesSkipped)
		w("bytes copied", r.BytesCopied)
		w("dirs created", r.DirsCreated)
		w("chunks copied", r.ChunksCopied)
		w("chunks skipped", r.ChunksSkipped)
		w("tape restores", r.Restored)
		w("avg rate", fmt.Sprintf("%.1f MB/s", r.Rate()/1e6))
	}
	w("mpi messages", r.Messages)
	if r.Stalled {
		w("TERMINATED", "WatchDog detected a stall")
	}
	if len(r.history) > 0 {
		b.WriteString("  interval history (WatchDog):\n")
		prev := historyPoint{At: r.Started}
		for _, h := range r.history {
			dt := h.At - prev.At
			rate := 0.0
			if secs := dt.Seconds(); secs > 0 {
				rate = float64(h.Bytes-prev.Bytes) / secs / 1e6
			}
			fmt.Fprintf(&b, "    t=%-10v files=%-8d bytes=%-14d %+8.1f MB/s this interval\n",
				h.At-r.Started, h.Files, h.Bytes, rate)
			prev = h
		}
	}
	return b.String()
}
