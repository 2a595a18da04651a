package pfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/vfs"
)

// batchFiles is the fixture of the batch tests: n small files under /d.
func batchFiles(n int) (paths []string, specs []FileSpec) {
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d/f%03d", i)
		paths = append(paths, p)
		specs = append(specs, FileSpec{Path: p, Content: synthetic.NewUniform(uint64(i+1), 1000+int64(i))})
	}
	return paths, specs
}

// fsState renders everything about the tree but its timestamps, which
// are the documented difference between a batch and single operations.
func fsState(fs *FS) string {
	out := ""
	fs.Walk("/", func(i Info) error {
		out += fmt.Sprintf("%s %d %v %s\n", i.Path, i.Size, i.State, i.Pool)
		return nil
	})
	for _, p := range fs.pools {
		out += fmt.Sprintf("pool %s used %d\n", p.Spec.Name, p.Used())
	}
	return out
}

// TestBillMatchesSingleOps drives the same operations through N single
// calls and through one Bill(N) per phase on an uncontended metadata
// service: both reach the same virtual time after every phase and leave
// the same file system, and the batch costs one clock event per phase.
func TestBillMatchesSingleOps(t *testing.T) {
	const n = 40
	paths, specs := batchFiles(n)
	type outcome struct {
		marks  []time.Duration
		state  string
		events uint64
	}
	run := func(batched bool) outcome {
		var o outcome
		c := simtime.NewClock()
		fs := New(c, GPFSConfig("gpfs"))
		c.Go(func() {
			must := func(err error) {
				if err != nil {
					t.Error(err)
				}
			}
			must(fs.MkdirAll("/d"))
			must(fs.WriteFiles(specs))
			for _, p := range paths {
				must(fs.SetPremigrated(p))
			}
			before := c.EventsProcessed()
			// phase runs one operation per file, on a paid batch or as
			// single calls, and marks the time it ends.
			phase := func(batch func(b *Batch, p string) error, single func(p string) error) {
				if batched {
					b := fs.Bill(n)
					for _, p := range paths {
						must(batch(&b, p))
					}
				} else {
					for _, p := range paths {
						must(single(p))
					}
				}
				o.marks = append(o.marks, c.Now())
			}
			phase(func(b *Batch, p string) error { _, err := b.ReadContent(p); return err },
				func(p string) error { _, err := fs.ReadContent(p); return err })
			phase(func(b *Batch, p string) error { return b.punch(ref{path: p}) }, fs.Punch)
			phase(func(b *Batch, p string) error { return b.restore(ref{path: p}, true) },
				func(p string) error { return fs.Restore(p, true) })
			phase(func(b *Batch, p string) error { return b.writeFileIn(p+".copy", synthetic.NewUniform(7, 10), "slow") },
				func(p string) error { return fs.WriteFileIn(p+".copy", synthetic.NewUniform(7, 10), "slow") })
			o.events = c.EventsProcessed() - before
			o.state = fsState(fs)
			if batched {
				// Every operation of a batch happens at its end time.
				i, _ := fs.Stat(paths[0] + ".copy")
				if i.ModTime != o.marks[3] {
					t.Errorf("first file of the write batch stamped %v, want the batch end %v", i.ModTime, o.marks[3])
				}
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	single, batch := run(false), run(true)
	for i := range single.marks {
		if single.marks[i] != batch.marks[i] {
			t.Errorf("phase %d: singles end at %v, batch at %v", i, single.marks[i], batch.marks[i])
		}
	}
	if got, want := batch.marks[3]-batch.marks[0], 3*n*GPFSConfig("").MetaOpCost; got != want {
		t.Errorf("three batches of %d took %v, want %v", n, got, want)
	}
	if single.state != batch.state {
		t.Errorf("file systems differ:\nsingles:\n%s\nbatch:\n%s", single.state, batch.state)
	}
	if single.events != 4*n || batch.events != 4 {
		t.Errorf("clock events: singles %d (want %d), batch %d (want 4)", single.events, 4*n, batch.events)
	}
}

// TestBillHoldsSlotForBatch pins the contended semantics: with one
// metadata slot, a second actor's operation waits for the whole batch,
// where it would have slipped in after the first of N single operations.
func TestBillHoldsSlotForBatch(t *testing.T) {
	const n = 3
	run := func(batched bool) (aDone, bDone time.Duration) {
		c := simtime.NewClock()
		cfg := GPFSConfig("gpfs")
		cfg.MetaParallel = 1
		cfg.MetaOpCost = time.Millisecond
		fs := New(c, cfg)
		paths, specs := batchFiles(n)
		c.Go(func() {
			fs.MkdirAll("/d")
			fs.WriteFiles(specs)
			start := c.Now()
			c.Go(func() { // B: one Stat, issued while A holds the slot
				fs.Stat(paths[0])
				bDone = c.Now() - start
			})
			if batched {
				b := fs.Bill(n)
				for _, p := range paths {
					b.ReadContent(p)
				}
			} else {
				for _, p := range paths {
					fs.ReadContent(p)
				}
			}
			aDone = c.Now() - start
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return aDone, bDone
	}
	const ms = time.Millisecond
	if a, b := run(false); a != (n+1)*ms || b != 2*ms {
		t.Errorf("singles: A done at %v, B at %v; want %v and %v (B interleaves)", a, b, (n+1)*ms, 2*ms)
	}
	if a, b := run(true); a != n*ms || b != (n+1)*ms {
		t.Errorf("batch: A done at %v, B at %v; want %v and %v (B waits out the batch)", a, b, n*ms, (n+1)*ms)
	}
}

// TestBatchOverdrawPanics: spending more operations than were billed is
// a caller bug and panics; a failed operation still spends its share.
func TestBatchOverdrawPanics(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 10))
		overdrawn := func(fn func()) (panicked bool) {
			defer func() { panicked = recover() != nil }()
			fn()
			return false
		}
		b := fs.Bill(2)
		if _, err := b.ReadContent("/missing"); err == nil {
			t.Error("reading a missing file succeeded")
		}
		if _, err := b.ReadContent("/f"); err != nil {
			t.Error(err)
		}
		if !overdrawn(func() { b.ReadContent("/f") }) {
			t.Error("third operation on Bill(2) did not panic")
		}
		empty := fs.Bill(0)
		if !overdrawn(func() { empty.punch(ref{path: "/f"}) }) {
			t.Error("operation on Bill(0) did not panic")
		}
		if _, st, _ := fs.Lookup("/f"); st != Resident {
			t.Errorf("over-drawn Punch changed the file to %v", st)
		}
	})
}

// TestIDFormsBillLikePathForms runs one life cycle through the path
// forms and again through the ID forms, with two other actors contending
// for a two-slot metadata service. Each ID form must hold a slot for as
// long as its path form, so every operation — a failed one on a removed
// file too — ends at the same instant, the other actors finish at the
// same instants, the clock processes as many events, and the file
// systems end the same.
func TestIDFormsBillLikePathForms(t *testing.T) {
	const n = 8
	paths, specs := batchFiles(n)
	type outcome struct {
		marks  []time.Duration
		errs   []string
		events uint64
		state  string
	}
	run := func(byID bool) outcome {
		var o outcome
		c := simtime.NewClock()
		cfg := GPFSConfig("gpfs")
		cfg.MetaParallel = 2
		fs := New(c, cfg)
		c.Go(func() {
			if err := fs.MkdirAll("/d"); err != nil {
				t.Error(err)
			}
			if err := fs.WriteFiles(append(specs, FileSpec{Path: "/d/bg", Content: synthetic.NewUniform(9, 9)})); err != nil {
				t.Error(err)
			}
			ids := make([]vfs.FileID, n)
			for i, p := range paths {
				id, _, err := fs.Lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			gone := ids[n-1]
			if err := fs.Remove(paths[n-1]); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				c.Go(func() {
					for j := 0; j < 3*n; j++ {
						fs.Stat("/d/bg")
					}
					o.marks = append(o.marks, c.Now())
				})
			}
			// op runs the path or the ID form on file i and marks its end;
			// file n-1 was removed, and its old ID must fail as its path does.
			op := func(i int, path func(p string) error, id func(id vfs.FileID) error) {
				var err error
				if byID {
					err = id(ids[i])
				} else {
					err = path(paths[i])
				}
				o.marks = append(o.marks, c.Now())
				if err != nil {
					o.errs = append(o.errs, sentinelOf(err))
				}
			}
			for i := 0; i < n; i++ {
				op(i, func(p string) error { _, err := fs.Stat(p); return err },
					func(id vfs.FileID) error { _, err := fs.StatID(id); return err })
				op(i, func(p string) error { _, err := fs.ReadContent(p); return err },
					func(id vfs.FileID) error { _, err := fs.ReadContentID(id); return err })
				op(i, func(p string) error { return fs.SetXattr(p, "k", "v") },
					func(id vfs.FileID) error { return fs.SetXattrID(id, "k", "v") })
				op(i, fs.SetPremigrated, fs.SetPremigratedID)
				op(i, fs.Punch, fs.PunchID)
				op(i, func(p string) error { _, err := fs.ReadContent(p); return err },
					func(id vfs.FileID) error { _, err := fs.ReadContentID(id); return err })
			}
			b := fs.Bill(2 * n)
			for i := 0; i < n; i++ {
				op(i, func(p string) error { return b.restore(ref{path: p}, true) },
					func(id vfs.FileID) error { return b.RestoreID(id, true) })
				op(i, func(p string) error { _, err := b.ReadContent(p); return err },
					func(id vfs.FileID) error { _, err := b.ReadContentID(id); return err })
			}
			for i := 0; i < n; i++ {
				op(i, func(p string) error { v, err := fs.GetXattr(p, "k"); return xattrWas(v, err) },
					func(id vfs.FileID) error { v, err := fs.GetXattrID(id, "k"); return xattrWas(v, err) })
				_, st, err := fs.Lookup(paths[i])
				if byID {
					st, err = fs.StateID(ids[i])
				}
				o.errs = append(o.errs, fmt.Sprint(st, sentinelOf(err)))
			}
			if _, err := fs.StatID(gone); !errors.Is(err, vfs.ErrNotExist) {
				t.Errorf("StatID of a removed file: %v, want ErrNotExist", err)
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		o.events = c.EventsProcessed()
		o.state = fsState(fs)
		return o
	}
	paths2, ids2 := run(false), run(true)
	if fmt.Sprint(paths2.marks) != fmt.Sprint(ids2.marks) {
		t.Errorf("operations end at\npath forms %v\nID forms   %v", paths2.marks, ids2.marks)
	}
	if fmt.Sprint(paths2.errs) != fmt.Sprint(ids2.errs) {
		t.Errorf("outcomes differ:\npath forms %v\nID forms   %v", paths2.errs, ids2.errs)
	}
	if paths2.events != ids2.events || paths2.state != ids2.state {
		t.Errorf("path forms: %d events, state\n%s\nID forms: %d events, state\n%s", paths2.events, paths2.state, ids2.events, ids2.state)
	}
	if !strings.Contains(fmt.Sprint(ids2.errs), "not exist") || !strings.Contains(fmt.Sprint(ids2.errs), "offline") {
		t.Errorf("outcomes %v: want the removed file's ErrNotExist and a stub's ErrOffline among them", ids2.errs)
	}
}

// sentinelOf names the package error err wraps, "" for none.
func sentinelOf(err error) string {
	for _, s := range []error{vfs.ErrNotExist, vfs.ErrIsDir, ErrOffline, errBadState, errNoSpace} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return ""
}

// xattrWas turns a read of attribute k into an outcome: its value must
// be the "v" the run set.
func xattrWas(v string, err error) error {
	if err == nil && v != "v" {
		return fmt.Errorf("k = %q", v)
	}
	return err
}
