package pftool

// Journal is the restart journal of §4.5 taken to job granularity: a
// record of destination paths a previous pfcp/pfcm run completed, kept
// by the caller across invocations. An interrupted run's journal is
// passed back on the retry via Tunables.Journal; the Manager then skips
// completed destinations during classification — before any tape
// restore or data movement is planned for them — and counts the skips
// in Result.JournalSkipped.
//
// The journal complements the on-destination marks (whole-file
// stat-skip, per-chunk "good" xattrs): those decide cheaply whether a
// piece of data needs recopying, while the journal prunes finished
// files from the walk entirely, which is what makes resuming a
// million-file run affordable.
type Journal struct {
	done map[string]bool
}

// NewJournal creates an empty journal.
func NewJournal() *Journal {
	return &Journal{done: make(map[string]bool)}
}

// markDone records a completed destination path.
func (j *Journal) markDone(dst string) {
	if dst != "" {
		j.done[dst] = true
	}
}

// isDone reports whether a destination path was completed.
func (j *Journal) isDone(dst string) bool { return j.done[dst] }

// Len reports the number of completed destinations recorded.
func (j *Journal) Len() int { return len(j.done) }
