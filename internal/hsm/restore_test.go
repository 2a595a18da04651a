package hsm

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// recallFixture migrates n 8 MB files and returns their paths and file
// IDs in tape order (volume, then sequence) with the number of volumes
// they landed on: a recall of all of them is that many volume runs.
func recallFixture(t testing.TB, e *env, n int) (paths []string, ids []vfs.FileID, volumes int) {
	t.Helper()
	files := e.mkFiles(t, "/d", n, 8e6)
	if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		paths = append(paths, f.Path)
		ids = append(ids, f.ID)
	}
	locs, missing := e.eng.Locate(paths, ids)
	if len(missing) > 0 {
		t.Fatalf("fixture: %d migrated files have no tape location", len(missing))
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Volume != locs[j].Volume {
			return locs[i].Volume < locs[j].Volume
		}
		return locs[i].Seq < locs[j].Seq
	})
	for i, l := range locs {
		paths[i], ids[i] = l.Path, l.ID
		if i == 0 || l.Volume != locs[i-1].Volume {
			volumes++
		}
	}
	return paths, ids, volumes
}

// TestRestoreBillsPerVolumeRun recalls a few volumes' files through both
// entry points, once with free metadata and once at 200 us an operation.
// Paying for metadata must add exactly one clock event per volume run —
// the run's single bill, where per-file billing added two per file — and
// exactly the virtual time of a restore and a verify read per file.
func TestRestoreBillsPerVolumeRun(t *testing.T) {
	const n = 300
	const cost = 200 * time.Microsecond
	recalls := map[string]func(e *env, paths []string, ids []vfs.FileID) error{
		"RecallPinned": func(e *env, paths []string, ids []vfs.FileID) error {
			return e.eng.RecallPinned(e.cl.Nodes()[0].Name, paths, ids, sched.QoS{})
		},
		"RecallOrdered": func(e *env, paths []string, _ []vfs.FileID) error {
			res, err := e.eng.Recall(paths, RecallOrdered)
			if err == nil && (res.Files != n || res.Bytes != n*8e6) {
				t.Errorf("Recall result %+v, want %d files", res, n)
			}
			return err
		},
	}
	for name, recall := range recalls {
		measure := func(metaOpCost time.Duration) (events uint64, elapsed time.Duration, volumes int) {
			e := newEnvMeta(t, 2, Config{}, metaOpCost)
			e.run(t, func() {
				var paths []string
				var ids []vfs.FileID
				paths, ids, volumes = recallFixture(t, e, n)
				ev0, t0 := e.clock.EventsProcessed(), e.clock.Now()
				if err := recall(e, paths, ids); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				events, elapsed = e.clock.EventsProcessed()-ev0, e.clock.Now()-t0
				files, bytes := e.count("hsm_recalled_files_total"), e.count("hsm_recalled_bytes_total")
				if files != n || bytes != n*8e6 {
					t.Errorf("%s: counters %d files/%d bytes, want %d/%d", name, files, bytes, n, int64(n*8e6))
				}
				for _, p := range paths {
					if _, st, _ := e.fs.Lookup(p); st != pfs.Premigrated {
						t.Fatalf("%s: %s is %v after recall, want premigrated", name, p, st)
					}
				}
			})
			return events, elapsed, volumes
		}
		freeEvents, freeElapsed, _ := measure(0)
		events, elapsed, volumes := measure(cost)
		if events != freeEvents+uint64(volumes) {
			t.Errorf("%s: metadata billing added %d clock events for %d files on %d volumes, want one per volume",
				name, events-freeEvents, n, volumes)
		}
		if name == "RecallPinned" {
			// One machine, one run after another: the bills add up.
			if got, want := elapsed-freeElapsed, 2*n*cost; got != want {
				t.Errorf("%s: metadata billing added %v, want %v", name, got, want)
			}
		}
	}
}

// TestRestoreVerifyMismatch plants a wrong stub digest on file bad of a
// volume run. A pinned recall stops there: the files ahead are back and
// counted, the bad file has been restored but not counted, the files
// behind are still stubs. Recall instead finishes the run and reports
// the mismatch as its first error.
func TestRestoreVerifyMismatch(t *testing.T) {
	const n, bad = 12, 5
	setup := func(t *testing.T, e *env) ([]string, []vfs.FileID) {
		paths, ids, _ := recallFixture(t, e, n)
		if err := e.fs.SetXattr(paths[bad], sumXattr, "deadbeef"); err != nil {
			t.Fatal(err)
		}
		return paths, ids
	}
	wantStates := func(t *testing.T, e *env, paths []string, restored int) {
		t.Helper()
		for i, p := range paths {
			want := pfs.Premigrated
			if i >= restored {
				want = pfs.Migrated
			}
			if _, st, _ := e.fs.Lookup(p); st != want {
				t.Errorf("file %d is %v, want %v", i, st, want)
			}
		}
	}
	t.Run("RecallPinned", func(t *testing.T) {
		e := newEnvMeta(t, 1, Config{}, 200*time.Microsecond)
		e.run(t, func() {
			paths, ids := setup(t, e)
			err := e.eng.RecallPinned(e.cl.Nodes()[0].Name, paths, ids, sched.QoS{})
			if err == nil || !strings.Contains(err.Error(), paths[bad]+" restored with digest") {
				t.Fatalf("err = %v, want the digest mismatch on %s", err, paths[bad])
			}
			wantStates(t, e, paths, bad+1)
			files, bytes := e.count("hsm_recalled_files_total"), e.count("hsm_recalled_bytes_total")
			if files != bad || bytes != bad*8e6 {
				t.Errorf("counted %d files/%d bytes, want the %d ahead of the mismatch", files, bytes, bad)
			}
		})
	})
	t.Run("RecallOrdered", func(t *testing.T) {
		e := newEnvMeta(t, 1, Config{}, 200*time.Microsecond)
		e.run(t, func() {
			paths, _ := setup(t, e)
			res, err := e.eng.Recall(paths, RecallOrdered)
			if err == nil || !strings.Contains(err.Error(), paths[bad]+" restored with digest") {
				t.Fatalf("err = %v, want the digest mismatch on %s", err, paths[bad])
			}
			wantStates(t, e, paths, n)
			if files := e.count("hsm_recalled_files_total"); res.Files != n-1 || files != n-1 {
				t.Errorf("counted %d files (engine %d), want %d: all but the mismatch",
					res.Files, files, n-1)
			}
		})
	})
}

// recallAllocsPerFile bounds the heap allocations a pinned recall makes
// per restored file, the tape read, the restore and the verify read
// included: 7.15, what the recall measured on this fixture when it still
// resolved every path. Carrying file IDs measures 6.12.
const recallAllocsPerFile = 7.15

// pinnedRecallAllocs recalls the fixture's files with RecallPinned and
// returns the allocations per file, then punches the files again so
// the next call has the same work.
func pinnedRecallAllocs(tb testing.TB, e *env, paths []string, ids []vfs.FileID) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.eng.RecallPinned(e.cl.Nodes()[0].Name, paths, ids, sched.QoS{}); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	rePunch(tb, e, ids)
	return float64(after.Mallocs-before.Mallocs) / float64(len(ids))
}

// rePunch turns recalled (premigrated) files back into stubs.
func rePunch(tb testing.TB, e *env, ids []vfs.FileID) {
	for _, id := range ids {
		if err := e.fs.PunchID(id); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestRecallPinnedAllocs(t *testing.T) {
	const n = 1000
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		paths, ids, _ := recallFixture(t, e, n)
		pinnedRecallAllocs(t, e, paths, ids) // warm-up: route cache, drive mounts
		got := pinnedRecallAllocs(t, e, paths, ids)
		t.Logf("%.2f allocations per restored file", got)
		if got > recallAllocsPerFile {
			t.Errorf("RecallPinned: %.2f allocations per restored file, want <= %.1f", got, recallAllocsPerFile)
		}
	})
}

// BenchmarkRecallPinned restores 1,000 migrated 8 MB files in tape
// order with one pinned recall per iteration, punching them again
// between iterations off the clock.
func BenchmarkRecallPinned(b *testing.B) {
	const n = 1000
	e := newEnv(b, 2, Config{})
	e.clock.Go(func() {
		paths, ids, _ := recallFixture(b, e, n)
		node := e.cl.Nodes()[0].Name
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.eng.RecallPinned(node, paths, ids, sched.QoS{}); err != nil {
				panic(err)
			}
			b.StopTimer()
			rePunch(b, e, ids)
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/file")
	})
	if _, err := e.clock.Run(); err != nil {
		b.Fatal(err)
	}
}

// migrateAllocsPerFile bounds the allocations per file of a balanced
// migrate of 1,000 8 MB files, one tape object each, on mounted drives:
// per file the session grant, the store and drive spans, the digest
// attribute (its hex string and the file's first xattr), plus the
// migrate's own share. It measures 6.35; with the first xattr costing
// two allocations it was 7.35, and with a span costing three and a
// second, per-slice digest attribute 15.37.
const migrateAllocsPerFile = 6.5

func TestMigrateAllocs(t *testing.T) {
	const n = 1000
	e := newEnv(t, 10, Config{}) // a drive per mover node
	e.run(t, func() {
		migrate := func(dir string) float64 {
			files := e.mkFiles(t, dir, n, 8e6)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / n
		}
		migrate("/warm") // route cache, drive mounts, table chunks
		got := migrate("/d")
		t.Logf("%.2f allocations per migrated file", got)
		if got > migrateAllocsPerFile {
			t.Errorf("Migrate: %.2f allocations per file, want <= %.2f", got, migrateAllocsPerFile)
		}
	})
}
