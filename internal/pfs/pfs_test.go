package pfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/vfs"
)

// sim runs fn as the sole actor on a fresh GPFS-config FS and returns
// the elapsed virtual time.
func sim(t *testing.T, fn func(c *simtime.Clock, fs *FS)) time.Duration {
	t.Helper()
	c := simtime.NewClock()
	fs := New(c, GPFSConfig("gpfs"))
	c.Go(func() { fn(c, fs) })
	end, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestWriteReadRoundTrip(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		content := synthetic.NewUniform(1, 1e6)
		fs.MkdirAll("/data")
		if err := fs.WriteFile("/data/f", content); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadContent("/data/f")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(content) {
			t.Error("content mismatch")
		}
	})
}

func TestPoolAccounting(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		slow, _ := fs.Pool("slow")
		fs.WriteFile("/a", synthetic.NewUniform(1, 1000))
		fs.WriteFileIn("/b", synthetic.NewUniform(2, 500), "slow")
		if fast.Used() != 1000 {
			t.Errorf("fast.Used = %d, want 1000", fast.Used())
		}
		if slow.Used() != 500 {
			t.Errorf("slow.Used = %d, want 500", slow.Used())
		}
		fs.Remove("/a")
		if fast.Used() != 0 {
			t.Errorf("fast.Used after remove = %d, want 0", fast.Used())
		}
	})
}

func TestOverwriteAdjustsAccounting(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		fs.WriteFile("/f", synthetic.NewUniform(1, 1000))
		fs.WriteFile("/f", synthetic.NewUniform(2, 300))
		if fast.Used() != 300 {
			t.Errorf("fast.Used = %d, want 300", fast.Used())
		}
	})
}

func TestCapacityEnforced(t *testing.T) {
	c := simtime.NewClock()
	cfg := GPFSConfig("tiny")
	cfg.Pools = []PoolSpec{{Name: "fast", Capacity: 1000, Rate: 1e9}}
	cfg.DefaultPool = "fast"
	fs := New(c, cfg)
	c.Go(func() {
		if err := fs.WriteFile("/a", synthetic.NewUniform(1, 800)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/b", synthetic.NewUniform(2, 300)); !errors.Is(err, errNoSpace) {
			t.Errorf("err = %v, want ErrNoSpace", err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPool(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		if err := fs.WriteFileIn("/f", synthetic.NewUniform(1, 1), "nope"); !errors.Is(err, errNoPool) {
			t.Errorf("err = %v, want ErrNoPool", err)
		}
		if _, err := fs.Pool("nope"); !errors.Is(err, errNoPool) {
			t.Errorf("Pool err = %v, want ErrNoPool", err)
		}
	})
}

func TestMigrationLifecycle(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		content := synthetic.NewUniform(1, 5000)
		fs.WriteFile("/f", content)
		if _, st, _ := fs.Lookup("/f"); st != Resident {
			t.Errorf("state = %v, want resident", st)
		}
		if err := fs.SetPremigrated("/f"); err != nil {
			t.Fatal(err)
		}
		if _, st, _ := fs.Lookup("/f"); st != Premigrated {
			t.Errorf("state = %v, want premigrated", st)
		}
		if fast.Used() != 5000 {
			t.Errorf("premigrated should still hold disk space, Used = %d", fast.Used())
		}
		if err := fs.Punch("/f"); err != nil {
			t.Fatal(err)
		}
		if _, st, _ := fs.Lookup("/f"); st != Migrated {
			t.Errorf("state = %v, want migrated", st)
		}
		if fast.Used() != 0 {
			t.Errorf("punch should free disk space, Used = %d", fast.Used())
		}
		// Size stays visible on the stub.
		info, _ := fs.Stat("/f")
		if info.Size != 5000 {
			t.Errorf("stub Size = %d, want 5000", info.Size)
		}
		// Reads are refused offline.
		if _, err := fs.ReadContent("/f"); !errors.Is(err, ErrOffline) {
			t.Errorf("read of stub: err = %v, want ErrOffline", err)
		}
		// Restore brings it back.
		if err := fs.Restore("/f", true); err != nil {
			t.Fatal(err)
		}
		if _, st, _ := fs.Lookup("/f"); st != Premigrated {
			t.Errorf("state after recall = %v, want premigrated", st)
		}
		got, err := fs.ReadContent("/f")
		if err != nil || !got.Equal(content) {
			t.Errorf("content after recall mismatch: %v", err)
		}
	})
}

func TestPunchRequiresPremigrated(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 10))
		if err := fs.Punch("/f"); !errors.Is(err, errBadState) {
			t.Errorf("err = %v, want ErrBadState", err)
		}
	})
}

func TestWriteDirtiesPremigrated(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 100))
		fs.SetPremigrated("/f")
		fs.WriteAt("/f", 0, synthetic.NewUniform(2, 10))
		if _, st, _ := fs.Lookup("/f"); st != Resident {
			t.Errorf("state after write = %v, want resident (backend copy stale)", st)
		}
	})
}

func TestMigratedFileRejectsWrites(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 100))
		fs.SetPremigrated("/f")
		fs.Punch("/f")
		if err := fs.WriteAt("/f", 0, synthetic.NewUniform(2, 10)); !errors.Is(err, ErrOffline) {
			t.Errorf("WriteAt err = %v, want ErrOffline", err)
		}
	})
}

func TestRemoveMigratedStubDoesNotTouchPool(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		fs.WriteFile("/f", synthetic.NewUniform(1, 100))
		fs.SetPremigrated("/f")
		fs.Punch("/f")
		used := fast.Used()
		fs.Remove("/f")
		if fast.Used() != used {
			t.Errorf("removing a stub changed pool usage: %d -> %d", used, fast.Used())
		}
	})
}

func TestMetaOpsChargeTime(t *testing.T) {
	end := sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 1))
		for i := 0; i < 100; i++ {
			fs.Stat("/f")
		}
	})
	if end == 0 {
		t.Error("metadata operations charged no time")
	}
	cfg := GPFSConfig("gpfs")
	if end < 50*cfg.MetaOpCost {
		t.Errorf("end = %v, want at least 50 op costs", end)
	}
}

func TestScanCalibratedRate(t *testing.T) {
	// 1e6 inodes should scan in ~10 virtual minutes (GPFS calibration).
	c := simtime.NewClock()
	cfg := GPFSConfig("gpfs")
	cfg.MetaOpCost = 0 // isolate scan cost
	fs := New(c, cfg)
	c.Go(func() {
		const dirs = 100
		const perDir = 100
		for d := 0; d < dirs; d++ {
			dir := "/d" + string(rune('a'+d%26)) + "/" + itoa(d)
			fs.MkdirAll(dir)
			specs := make([]FileSpec, perDir)
			for f := 0; f < perDir; f++ {
				specs[f] = FileSpec{Path: dir + "/" + itoa(f), Content: synthetic.NewUniform(uint64(d*perDir+f), 10)}
			}
			fs.WriteFiles(specs)
		}
		n := fs.NumInodes()
		start := c.Now()
		count := 0
		fs.Scan(func(Info) error { count++; return nil })
		elapsed := c.Now() - start
		if count != n {
			t.Errorf("scan visited %d inodes, want %d", count, n)
		}
		perInode := elapsed / time.Duration(n)
		if perInode != cfg.ScanPerInode {
			t.Errorf("scan cost %v/inode, want %v", perInode, cfg.ScanPerInode)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestWriteFilesBulkCheaperThanLoop(t *testing.T) {
	mk := func(bulk bool) time.Duration {
		c := simtime.NewClock()
		fs := New(c, GPFSConfig("gpfs"))
		c.Go(func() {
			fs.MkdirAll("/d")
			if bulk {
				specs := make([]FileSpec, 1000)
				for i := range specs {
					specs[i] = FileSpec{Path: "/d/f" + itoa(i), Content: synthetic.NewUniform(uint64(i), 1)}
				}
				fs.WriteFiles(specs)
			} else {
				for i := 0; i < 1000; i++ {
					fs.WriteFile("/d/f"+itoa(i), synthetic.NewUniform(uint64(i), 1))
				}
			}
		})
		end, err := c.Run()
		if err != nil {
			panic(err)
		}
		return end
	}
	if b, l := mk(true), mk(false); b > l {
		t.Errorf("bulk (%v) should not be slower than loop (%v)", b, l)
	}
}

func TestRenamePreservesID(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/a", synthetic.NewUniform(1, 10))
		before, _ := fs.Stat("/a")
		fs.Rename("/a", "/b")
		after, _ := fs.Stat("/b")
		if before.ID != after.ID {
			t.Error("rename changed file ID")
		}
	})
}

func TestRenameReplacingReleasesSpace(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		fs.WriteFile("/a", synthetic.NewUniform(1, 100))
		fs.WriteFile("/b", synthetic.NewUniform(2, 900))
		fs.Rename("/a", "/b")
		if fast.Used() != 100 {
			t.Errorf("Used = %d, want 100 (replaced file released)", fast.Used())
		}
	})
}

func TestRemoveAllReleasesSpace(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		fs.MkdirAll("/d/e")
		fs.WriteFile("/d/a", synthetic.NewUniform(1, 100))
		fs.WriteFile("/d/e/b", synthetic.NewUniform(2, 200))
		fs.RemoveAll("/d")
		if fast.Used() != 0 {
			t.Errorf("Used = %d, want 0", fast.Used())
		}
		if fs.NumInodes() != 1 {
			t.Errorf("NumInodes = %d, want 1", fs.NumInodes())
		}
	})
}

func TestStatIDForSyncDeleter(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 10))
		info, _ := fs.Stat("/f")
		got, err := fs.StatID(info.ID)
		if err != nil || got.Size != 10 {
			t.Errorf("StatID = %+v, %v", got, err)
		}
		if _, err := fs.StatID(vfs.FileID(9999)); err == nil {
			t.Error("StatID of missing ID should fail")
		}
	})
}

func TestPoolLinkRates(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		start := c.Now()
		fabric.Path{}.With(fast.link).Transfer(3e9) // 1s at 3 GB/s
		if got := c.Now() - start; got < 900*time.Millisecond || got > 1100*time.Millisecond {
			t.Errorf("3 GB over fast pool took %v, want ~1s", got)
		}
	})
}

// Renaming a tree beneath itself used to detach it from the root while
// its bytes stayed charged to the pool for good.
func TestRenameIntoOwnSubtreeRefused(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fast, _ := fs.Pool("fast")
		fs.MkdirAll("/a/b")
		fs.WriteFile("/a/f", synthetic.NewUniform(1, 100))
		fs.WriteFile("/a/b/g", synthetic.NewUniform(2, 200))
		before := fsState(fs)
		if err := fs.Rename("/a", "/a/b/c"); err == nil || !strings.Contains(err.Error(), "invalid argument") {
			t.Errorf("Rename(/a, /a/b/c) = %v, want an invalid-argument error", err)
		}
		if after := fsState(fs); after != before {
			t.Errorf("refused rename changed the file system:\n%s\nwas:\n%s", after, before)
		}
		walked := 0
		fs.Walk("/", func(Info) error { walked++; return nil })
		if fast.Used() != 300 || fs.NumInodes() != 5 || walked != 5 {
			t.Errorf("Used = %d, NumInodes = %d, walked %d; want 300, 5, 5", fast.Used(), fs.NumInodes(), walked)
		}
		fs.RemoveAll("/a")
		if fast.Used() != 0 || fs.NumInodes() != 1 {
			t.Errorf("after RemoveAll: Used = %d, NumInodes = %d; want 0, 1", fast.Used(), fs.NumInodes())
		}
	})
}

// A read of a migrated stub is refused before the namespace counts it
// as an access: ILM age policies must not see a failed read.
func TestReadOfflineStubLeavesATime(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.WriteFile("/f", synthetic.NewUniform(1, 100))
		fs.WriteFile("/g", synthetic.NewUniform(2, 100))
		fs.SetPremigrated("/f")
		fs.Punch("/f")
		c.Sleep(time.Hour)
		b := fs.Bill(2)
		if _, err := b.ReadContent("/f"); !errors.Is(err, ErrOffline) {
			t.Errorf("read of a stub: err = %v, want ErrOffline", err)
		}
		if _, err := b.ReadContent("/g"); err != nil {
			t.Error(err)
		}
		f, _ := fs.Stat("/f")
		g, _ := fs.Stat("/g")
		if f.ATime != 0 {
			t.Errorf("refused read moved the stub's atime to %v", f.ATime)
		}
		if g.ATime < time.Hour {
			t.Errorf("resident read left atime at %v", g.ATime)
		}
	})
}

func TestReadDirResidency(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.MkdirAll("/d/sub")
		fs.WriteFileIn("/d/b", synthetic.NewUniform(1, 10), "slow")
		fs.WriteFile("/d/a", synthetic.NewUniform(2, 20))
		fs.SetPremigrated("/d/a")
		entries, err := fs.ReadDir("/d")
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, e := range entries {
			got += fmt.Sprintf("%s %s %d %q %v;", e.Name, e.Path, e.Size, e.Pool, e.State)
		}
		if want := `a /d/a 20 "fast" premigrated;b /d/b 10 "slow" resident;sub /d/sub 0 "" resident;`; got != want {
			t.Errorf("ReadDir = %s\nwant      %s", got, want)
		}
		if _, err := fs.ReadDir("/d/a"); err == nil || !strings.Contains(err.Error(), "not a directory") {
			t.Errorf("ReadDir of a file: %v, want a not-a-directory error", err)
		}
	})
}

// A policy scan sleeps every 10k inodes with its walk suspended inside a
// directory, and writers run meanwhile. Whatever they do to that
// directory, the scan reports each file that was there when it entered
// and still is when its turn comes exactly once, and no other.
func TestScanWhileWritersAreActive(t *testing.T) {
	const n = 25000
	name := func(i int) string { return fmt.Sprintf("/d/f%05d", i) }
	seen := map[string]int{}
	sim(t, func(c *simtime.Clock, fs *FS) {
		fs.MkdirAll("/d")
		specs := make([]FileSpec, n)
		for i := range specs { // descending: the scan has to sort the directory
			specs[i] = FileSpec{Path: name(n - 1 - i), Content: synthetic.NewUniform(uint64(i), 10)}
		}
		if err := fs.WriteFiles(specs); err != nil {
			t.Fatal(err)
		}
		fs.Remove(name(3)) // a tombstone ahead of everything
		c.Go(func() {
			c.Sleep(time.Nanosecond) // the scan is asleep 9998 files into /d
			for _, i := range []int{5, 15000, 15001} {
				if err := fs.Remove(name(i)); err != nil {
					t.Error(err)
				}
			}
			fs.Remove(name(20000))
			fs.WriteFile(name(20000), synthetic.NewUniform(1, 10)) // the name again, another file
			fs.WriteFile("/d/a", synthetic.NewUniform(2, 10))      // sorts first: the table is out of order
			if _, err := fs.ReadDir("/d"); err != nil {            // ... and this listing sorts it
				t.Error(err)
			}
			for i := 0; i < n; i++ { // grow it past every threshold
				fs.WriteFile(fmt.Sprintf("/d/g%05d", i), synthetic.NewUniform(3, 10))
			}
		})
		fs.Scan(func(e Info) error { seen[e.Path]++; return nil })
	})
	for i := 0; i < n; i++ {
		want := 1
		switch i {
		case 3, 15000, 15001, 20000:
			want = 0
		}
		if seen[name(i)] != want {
			t.Errorf("scan reported %s %d times, want %d", name(i), seen[name(i)], want)
		}
	}
	if got, want := len(seen), 2+n-4; got != want { // "/", "/d" and the files above
		t.Errorf("scan reported %d paths, want %d (nothing created behind its back)", got, want)
	}
}
