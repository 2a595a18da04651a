package ilm

import (
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

func sim(t *testing.T, fn func(c *simtime.Clock, fs *pfs.FS)) {
	t.Helper()
	c := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	cfg.MetaOpCost = 0 // policy tests don't exercise metadata timing
	fs := pfs.New(c, cfg)
	c.Go(func() { fn(c, fs) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func seed(fs *pfs.FS) {
	fs.MkdirAll("/proj/a")
	fs.MkdirAll("/proj/b")
	fs.WriteFile("/proj/a/big", synthetic.NewUniform(1, 10e6))
	fs.WriteFile("/proj/a/small", synthetic.NewUniform(2, 100))
	fs.WriteFileIn("/proj/b/slowfile", synthetic.NewUniform(3, 5000), "slow")
}

func TestPredicates(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *pfs.FS) {
		seed(fs)
		now := c.Now()
		big, _ := fs.Stat("/proj/a/big")
		small, _ := fs.Stat("/proj/a/small")
		slow, _ := fs.Stat("/proj/b/slowfile")
		dir, _ := fs.Stat("/proj/a")

		if !sizeLess(1000)(small, now) || sizeLess(1000)(big, now) {
			t.Error("SizeLess wrong")
		}
		if !PathPrefix("/proj/a")(big, now) || PathPrefix("/proj/a")(slow, now) {
			t.Error("PathPrefix wrong")
		}
		if !inPool("slow")(slow, now) || inPool("slow")(big, now) {
			t.Error("InPool wrong")
		}
		if !IsFile()(big, now) || IsFile()(dir, now) {
			t.Error("IsFile wrong")
		}
		if !StateIs(pfs.Resident)(big, now) {
			t.Error("StateIs wrong")
		}
		if !And(IsFile(), sizeLess(1000))(small, now) || And(IsFile(), sizeLess(1000))(big, now) {
			t.Error("And wrong")
		}
	})
}

func TestRunListFilters(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *pfs.FS) {
		seed(fs)
		list, err := RunList(fs, func(i pfs.Info, _ time.Duration) bool { return !i.IsDir() && i.Size >= 1e6 })
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 1 || list[0].Path != "/proj/a/big" {
			t.Errorf("list = %+v", list)
		}
	})
}

func TestRunListChargesScanTime(t *testing.T) {
	c := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	fs := pfs.New(c, cfg)
	var elapsed time.Duration
	c.Go(func() {
		seed(fs)
		start := c.Now()
		RunList(fs, IsFile())
		elapsed = c.Now() - start
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(fs.NumInodes()) * cfg.ScanPerInode
	if elapsed != want {
		t.Errorf("scan charged %v, want %v", elapsed, want)
	}
}

func TestPlacementRules(t *testing.T) {
	p := ArchivePlacement(1e6)
	if got := p.Choose("/x", 100, 0); got != "slow" {
		t.Errorf("small file placed in %s, want slow", got)
	}
	if got := p.Choose("/x", 10e6, 0); got != "fast" {
		t.Errorf("big file placed in %s, want fast", got)
	}
}

func TestPlacementDefaultOnly(t *testing.T) {
	p := Placement{Default: "fast"}
	if got := p.Choose("/anything", 5, 0); got != "fast" {
		t.Errorf("got %s", got)
	}
}

func TestThresholdPolicyBelowHighIsNil(t *testing.T) {
	sim(t, func(c *simtime.Clock, fs *pfs.FS) {
		seed(fs)
		tp := ThresholdPolicy{Pool: "fast", High: 0.9, Low: 0.5}
		cands, err := tp.Candidates(fs)
		if err != nil {
			t.Fatal(err)
		}
		if cands != nil {
			t.Errorf("pool nearly empty but got %d candidates", len(cands))
		}
	})
}

func TestThresholdPolicySelectsOldestUntilLow(t *testing.T) {
	c := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	cfg.Pools = []pfs.PoolSpec{{Name: "fast", Capacity: 1000, Rate: 1e9}}
	cfg.DefaultPool = "fast"
	fs := pfs.New(c, cfg)
	c.Go(func() {
		// Three files of 300 bytes each, created at different times:
		// pool at 90% (900/1000). High=0.8, Low=0.4 -> need to free
		// down to 400 -> migrate the two oldest.
		fs.WriteFile("/first", synthetic.NewUniform(1, 300))
		c.Sleep(time.Minute)
		fs.WriteFile("/second", synthetic.NewUniform(2, 300))
		c.Sleep(time.Minute)
		fs.WriteFile("/third", synthetic.NewUniform(3, 300))
		tp := ThresholdPolicy{Pool: "fast", High: 0.8, Low: 0.4}
		cands, err := tp.Candidates(fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 {
			t.Fatalf("got %d candidates, want 2", len(cands))
		}
		if cands[0].Path != "/first" || cands[1].Path != "/second" {
			t.Errorf("candidates = %s, %s; want /first, /second", cands[0].Path, cands[1].Path)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
