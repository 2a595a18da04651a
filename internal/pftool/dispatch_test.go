package pftool

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/synthetic"
)

// chunkAllocsBound bounds the allocations per chunk of a chunked pfcp
// of 40 files of 20 GB (200 chunks of 4 GB), measured over the whole
// run: per chunk the job span, the scheduler grant, the source read and
// the chunk's write and mark, plus each file's preallocation and the
// run's setup spread over its chunks. It measures 8.48; it was 15.81 when
// every job and report was boxed into an interface, each message boxed
// again in the mailbox, the mark key formatted per chunk and the idle
// pools reallocated as they crept.
const chunkAllocsBound = 9.0

func TestChunkedCopyAllocs(t *testing.T) {
	const files = 40
	e := newEnv()
	e.run(t, func() {
		copyTree := func(src, dst string) float64 {
			if err := e.scratch.MkdirAll(src); err != nil {
				t.Fatal(err)
			}
			specs := make([]pfs.FileSpec, files)
			for i := range specs {
				specs[i] = pfs.FileSpec{Path: fmt.Sprintf("%s/f%02d", src, i), Content: synthetic.NewUniform(uint64(i+1), 20e9)}
			}
			if err := e.scratch.WriteFiles(specs); err != nil {
				t.Fatal(err)
			}
			req := baseRequest(e, OpCopy)
			req.Src, req.Dst = src, dst
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.ChunksCopied != 5*files || res.FilesCopied != files {
				t.Fatalf("copied %d chunks of %d files, want %d of %d", res.ChunksCopied, res.FilesCopied, 5*files, files)
			}
			return float64(after.Mallocs-before.Mallocs) / float64(res.ChunksCopied)
		}
		copyTree("/warm", "/warmdst") // routes, streams, telemetry series
		got := copyTree("/src", "/dst")
		t.Logf("%.2f allocations per chunk", got)
		if got > chunkAllocsBound {
			t.Errorf("chunked pfcp: %.2f allocations per chunk, want <= %.2f", got, chunkAllocsBound)
		}
	})
}

// A dead rank's job goes back on its queue as the rank held it — from
// the rank's slot, after the slot has carried an earlier job — and a
// report the rank sends after its death is dropped unread.
func TestRequeueTakesTheDeadRanksJob(t *testing.T) {
	e := newEnv()
	e.run(t, func() {
		req := baseRequest(e, OpCopy)
		if err := validate(&req); err != nil {
			t.Fatal(err)
		}
		r := newRun(req)
		w := r.layout.workers[0]
		first := copyJob{kind: kindChunk, src: "/src/a", dst: "/dst/a", length: 4e9, logical: "/dst/a"}
		second := copyJob{kind: kindBatch, batch: []fileCopy{{src: "/src/b", dst: "/dst/b", id: 9, bytes: 1e6}}}
		r.copyQ = append(r.copyQ, first, second)
		r.copyOut = 2
		r.chunkRemaining["/dst/a"] = 1

		r.markIdle(w) // the worker reports in; it is the only idle rank
		r.assign()
		if !r.ranks[w].busy || len(r.copyQ) != 1 {
			t.Fatalf("after the first assign: busy %v, %d queued; want true, 1", r.ranks[w].busy, len(r.copyQ))
		}
		r.ranks[w].copyRes = copyResult{chunks: 1, bytes: 4e9, logical: "/dst/a"}
		r.handle(mpi.Message{From: w, Tag: tagCopyResult, Data: &r.ranks[w].copyRes})
		r.assign() // the second job reuses the slot
		if !r.ranks[w].busy || len(r.copyQ) != 0 || r.busy != 1 {
			t.Fatalf("after the second assign: busy %v, %d queued, %d busy; want true, 0, 1", r.ranks[w].busy, len(r.copyQ), r.busy)
		}

		r.rankDead(w)
		if len(r.copyQ) != 1 || !reflect.DeepEqual(r.copyQ[0], second) {
			t.Fatalf("requeued %+v, want the job the dead rank held, %+v", r.copyQ, second)
		}
		if r.ranks[w].busy || r.busy != 0 || r.idle[roleWorker].len() != 0 {
			t.Errorf("dead rank: busy %v, %d busy, %d idle; want false, 0, 0", r.ranks[w].busy, r.busy, r.idle[roleWorker].len())
		}
		r.handle(mpi.Message{From: w, Tag: tagCopyResult}) // no payload to read
		if r.copyOut != 1 || r.res.ChunksCopied != 1 {
			t.Errorf("a dead rank's late report counted: copyOut %d, chunks %d; want 1, 1", r.copyOut, r.res.ChunksCopied)
		}
	})
}

// The idle pool is a FIFO: ranks leave in the order they joined, also
// around a removal and across the wrap of its ring.
func TestIdlePoolKeepsOrder(t *testing.T) {
	q := newRankFIFO(4)
	var got []int
	for _, r := range []int{5, 6, 7} {
		q.push(r)
	}
	got = append(got, q.pop(), q.pop()) // 5 6
	q.push(8)
	q.push(9)
	q.push(10) // the ring wraps: 7 8 9 10
	q.remove(8)
	q.remove(11) // absent: no change
	for q.len() > 0 {
		got = append(got, q.pop())
	}
	if want := []int{5, 6, 7, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("popped %v, want %v", got, want)
	}
}
