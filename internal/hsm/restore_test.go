package hsm

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/sched"
)

// recallFixture migrates n 8 MB files and returns their paths in tape
// order (volume, then sequence) with the number of volumes they landed
// on: a recall of all of them is that many volume runs.
func recallFixture(t *testing.T, e *env, n int) (paths []string, volumes int) {
	t.Helper()
	files := e.mkFiles(t, "/d", n, 8e6)
	if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		paths = append(paths, f.Path)
	}
	locs, missing := e.eng.Locate(paths)
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
		paths[i] = l.Path
		if i == 0 || l.Volume != locs[i-1].Volume {
			volumes++
		}
	}
	return paths, volumes
}

// TestRestoreBillsPerVolumeRun recalls a few volumes' files through both
// entry points, once with free metadata and once at 200 us an operation.
// Paying for metadata must add exactly one clock event per volume run —
// the run's single bill, where per-file billing added two per file — and
// exactly the virtual time of a restore and a verify read per file.
func TestRestoreBillsPerVolumeRun(t *testing.T) {
	const n = 300
	const cost = 200 * time.Microsecond
	recalls := map[string]func(e *env, paths []string) error{
		"RecallPinned": func(e *env, paths []string) error {
			return e.eng.RecallPinned(e.cl.Nodes()[0].Name, paths, sched.QoS{})
		},
		"RecallOrdered": func(e *env, paths []string) error {
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
				paths, volumes = recallFixture(t, e, n)
				ev0, t0 := e.clock.EventsProcessed(), e.clock.Now()
				if err := recall(e, paths); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				events, elapsed = e.clock.EventsProcessed()-ev0, e.clock.Now()-t0
				files, bytes := e.count("hsm_recalled_files_total"), e.count("hsm_recalled_bytes_total")
				if files != n || bytes != n*8e6 {
					t.Errorf("%s: counters %d files/%d bytes, want %d/%d", name, files, bytes, n, int64(n*8e6))
				}
				for _, p := range paths {
					if st, _ := e.fs.State(p); st != pfs.Premigrated {
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
	setup := func(t *testing.T, e *env) []string {
		paths, _ := recallFixture(t, e, n)
		if err := e.fs.SetXattr(paths[bad], SumXattr, "deadbeef"); err != nil {
			t.Fatal(err)
		}
		return paths
	}
	wantStates := func(t *testing.T, e *env, paths []string, restored int) {
		t.Helper()
		for i, p := range paths {
			want := pfs.Premigrated
			if i >= restored {
				want = pfs.Migrated
			}
			if st, _ := e.fs.State(p); st != want {
				t.Errorf("file %d is %v, want %v", i, st, want)
			}
		}
	}
	t.Run("RecallPinned", func(t *testing.T) {
		e := newEnvMeta(t, 1, Config{}, 200*time.Microsecond)
		e.run(t, func() {
			paths := setup(t, e)
			err := e.eng.RecallPinned(e.cl.Nodes()[0].Name, paths, sched.QoS{})
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
			paths := setup(t, e)
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
