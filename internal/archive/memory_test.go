package archive

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/synthetic"
	"repro/internal/workload"
)

// numFiles counts the regular files left on fs.
func numFiles(fs *pfs.FS) int {
	n := 0
	fs.Walk("/", func(in pfs.Info) error {
		if !in.IsDir() {
			n++
		}
		return nil
	})
	return n
}

// liveHeap is the heap in use once everything unreachable is collected.
// It is called from inside the driving actor, between cycles, so what it
// reports is what the plant still holds after a teardown.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// heapSlope is the mean growth per cycle from the second sample on (the
// first cycle pays for one-time state: series, routes, directories).
func heapSlope(heap []int64) float64 {
	return float64(heap[len(heap)-1]-heap[1]) / float64(len(heap)-2)
}

// TestCampaignMemoryIsBounded holds RunJob to its teardown comment: a
// plant that has archived and removed a job keeps (almost) nothing of
// it: the two-byte residency record per ID and the chunk table. An arena
// that never releases a chunk measures 91 B here.
func TestCampaignMemoryIsBounded(t *testing.T) {
	const (
		cycles  = 6
		files   = 20000
		perFile = 1e6
		// Inodes a cycle creates and removes: the files on both tiers
		// (directories, a few per thousand files, left out: the bound is
		// the stricter for it).
		inodes = 2 * files
		bound  = 16.0 // bytes retained per inode created
	)
	spec := workload.JobSpec{
		ID: 1, Project: "materials",
		NumFiles: files, TotalBytes: files * perFile, AvgFileSize: perFile,
	}
	runSys(t, func(s *System) {
		var heap []int64
		for c := 0; c < cycles; c++ {
			jr, err := RunJob(s, spec, 42, testTunables())
			if err != nil {
				t.Fatal(err)
			}
			if jr.Files != files {
				t.Fatalf("cycle %d archived %d files, want %d", c, jr.Files, files)
			}
			if n := numFiles(s.Scratch) + numFiles(s.Archive); n != 0 {
				t.Fatalf("cycle %d left %d files behind", c, n)
			}
			heap = append(heap, liveHeap())
		}
		perInode := heapSlope(heap) / inodes
		t.Logf("live heap after each teardown: %v; %.1f B retained per inode created", heap, perInode)
		if perInode > bound {
			t.Errorf("plant retains %.1f B per inode created and removed, want <= %.0f", perInode, bound)
		}
	})
}

// TestLifecycleMemoryAudit cycles the full life of archived data —
// write, migrate to tape (stubbing punches the disk copy), trashcan
// delete, synchronous purge of file and tape object, volume reclaim —
// and reports what the plant retains per file that has come and gone.
// Unlike a campaign job this legitimately leaves history behind: TSM
// keeps a deleted object's database entry (with its path), and the
// trashcan directory keeps tombstones until its table is next rebuilt.
// DESIGN.md ("What grows with history") lists each store with its
// share; the bound here is that table's total with headroom, so a new
// per-object leak fails.
func TestLifecycleMemoryAudit(t *testing.T) {
	const (
		cycles = 6
		files  = 4000
		size   = 64e6
		bound  = 400.0 // bytes retained per file created, migrated and purged
	)
	runSys(t, func(s *System) {
		can, err := s.TrashCan()
		if err != nil {
			t.Fatal(err)
		}
		var heap []int64
		for c := 0; c < cycles; c++ {
			root := fmt.Sprintf("/arc/cycle%d", c)
			if err := s.Archive.MkdirAll(root); err != nil {
				t.Fatal(err)
			}
			specs := make([]pfs.FileSpec, files)
			for i := range specs {
				specs[i] = pfs.FileSpec{
					Path:    fmt.Sprintf("%s/f%05d", root, i),
					Content: synthetic.NewUniform(uint64(c*files+i+1), size),
				}
			}
			if err := s.Archive.WriteFiles(specs); err != nil {
				t.Fatal(err)
			}
			mres, err := s.MigrateTree(root, hsm.MigrateOptions{Balanced: true})
			if err != nil || mres.Files != files {
				t.Fatalf("cycle %d: migrated %d of %d: %v", c, mres.Files, files, err)
			}
			for _, spec := range specs {
				if _, err := can.Delete("alice", spec.Path); err != nil {
					t.Fatal(err)
				}
			}
			pres, err := s.Deleter.Purge(can)
			if err != nil || pres.TapeDeletes != files {
				t.Fatalf("cycle %d: purged %d tape objects of %d: %v", c, pres.TapeDeletes, files, err)
			}
			if err := s.Archive.RemoveAll(root); err != nil {
				t.Fatal(err)
			}
			if _, err := s.TSM.ReclaimThreshold(s.Cluster.Nodes()[0].Name, 0); err != nil {
				t.Fatal(err)
			}
			if n, live := numFiles(s.Archive), s.TSM.NumObjects(); n != 0 || live != 0 {
				t.Fatalf("cycle %d left %d files, %d live tape objects", c, n, live)
			}
			heap = append(heap, liveHeap())
		}
		perFile := heapSlope(heap) / files
		t.Logf("live heap after each cycle: %v; %.0f B retained per file", heap, perFile)
		if perFile > bound {
			t.Errorf("lifecycle retains %.0f B per file come and gone, want <= %.0f", perFile, bound)
		}
	})
}
