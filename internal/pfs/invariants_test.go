package pfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/synthetic"
)

// TestInvariantPoolAccounting drives a file system through a random
// sequence of writes, overwrites, appends, removes, renames, and
// migration-state transitions, then verifies that every pool's Used()
// equals the sum of on-disk bytes (resident + premigrated) of the files
// placed in it.
func TestInvariantPoolAccounting(t *testing.T) {
	clock := simtime.NewClock()
	cfg := GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	fs := New(clock, cfg)
	r := rand.New(rand.NewSource(11))
	clock.Go(func() {
		fs.MkdirAll("/d")
		var paths []string
		for step := 0; step < 2000; step++ {
			switch op := r.Intn(100); {
			case op < 35: // create or overwrite
				p := fmt.Sprintf("/d/f%03d", r.Intn(120))
				pool := []string{"fast", "slow"}[r.Intn(2)]
				size := int64(r.Intn(10000) + 1)
				if err := fs.WriteFileIn(p, synthetic.NewUniform(uint64(step), size), pool); err != nil {
					t.Fatal(err)
				}
				paths = appendUnique(paths, p)
			case op < 45 && len(paths) > 0: // append
				p := paths[r.Intn(len(paths))]
				if info, err := fs.Stat(p); err == nil {
					fs.WriteAt(p, info.Size, synthetic.NewUniform(uint64(step), int64(r.Intn(500)+1)))
				}
			case op < 70 && len(paths) > 0: // remove
				p := paths[r.Intn(len(paths))]
				fs.Remove(p)
			case op < 80 && len(paths) > 0: // rename
				src := paths[r.Intn(len(paths))]
				dst := fmt.Sprintf("/d/f%03d", r.Intn(120))
				if src != dst && fs.Exists(src) {
					fs.Rename(src, dst)
					paths = appendUnique(paths, dst)
				}
			case op < 90 && len(paths) > 0: // premigrate
				p := paths[r.Intn(len(paths))]
				fs.SetPremigrated(p) // may fail; fine
			default: // punch or restore
				if len(paths) == 0 {
					continue
				}
				p := paths[r.Intn(len(paths))]
				if _, st, err := fs.Lookup(p); err == nil {
					switch st {
					case Premigrated:
						fs.Punch(p)
					case Migrated:
						fs.Restore(p, r.Intn(2) == 0)
					}
				}
			}
			if step%200 == 0 {
				checkAccounting(t, fs, step)
			}
		}
		checkAccounting(t, fs, 2000)
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

func checkAccounting(t *testing.T, fs *FS, step int) {
	t.Helper()
	want := make(map[string]int64)
	err := fs.Walk("/", func(i Info) error {
		if i.IsDir() {
			return nil
		}
		if i.State != Migrated {
			want[i.Pool] += i.Size
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range fs.pools {
		if got := pool.Used(); got != want[pool.Spec.Name] {
			t.Fatalf("step %d: pool %s Used=%d, walk says %d",
				step, pool.Spec.Name, got, want[pool.Spec.Name])
		}
		if pool.Used() < 0 {
			t.Fatalf("step %d: pool %s negative usage", step, pool.Spec.Name)
		}
		if pool.Used() > pool.Spec.Capacity {
			t.Fatalf("step %d: pool %s over capacity", step, pool.Spec.Name)
		}
	}
}

// TestInvariantStubsKeepSizes checks that a migrated stub reports its
// logical size while charging no pool space, across random punch and
// restore cycles.
func TestInvariantStubsKeepSizes(t *testing.T) {
	clock := simtime.NewClock()
	cfg := GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	fs := New(clock, cfg)
	r := rand.New(rand.NewSource(5))
	clock.Go(func() {
		fs.MkdirAll("/d")
		sizes := make(map[string]int64)
		for i := 0; i < 40; i++ {
			p := fmt.Sprintf("/d/f%02d", i)
			size := int64(r.Intn(100000) + 1)
			fs.WriteFile(p, synthetic.NewUniform(uint64(i+1), size))
			sizes[p] = size
			fs.SetPremigrated(p)
			fs.Punch(p)
		}
		for cycle := 0; cycle < 100; cycle++ {
			p := fmt.Sprintf("/d/f%02d", r.Intn(40))
			_, st, _ := fs.Lookup(p)
			if st == Migrated {
				fs.Restore(p, true)
				fs.Punch(p)
			}
			info, err := fs.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != sizes[p] {
				t.Fatalf("%s: stub size %d, want %d", p, info.Size, sizes[p])
			}
		}
	})
	clock.RunFor()
}
