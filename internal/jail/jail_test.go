package jail

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hsm"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/trash"
	"repro/internal/tsm"
)

type env struct {
	clock *simtime.Clock
	fs    *pfs.FS
	lib   *tape.Library
	eng   *hsm.Engine
	can   *trash.Can
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	cfg.ScanPerInode = 0
	fs := pfs.New(clock, cfg)
	lib := tape.NewLibrary(clock, 4, 32, 2, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	shadow := metadb.New(clock, 100*time.Microsecond)
	srv.OnChange(shadow.Apply)
	cl := cluster.New(clock, cluster.RoadrunnerConfig())
	eng := hsm.New(clock, fs, srv, shadow, cl.Nodes(), hsm.Config{})
	return &env{clock: clock, fs: fs, lib: lib, eng: eng}
}

func (e *env) run(t *testing.T, fn func(j *Jail)) {
	t.Helper()
	e.clock.Go(func() {
		can, err := trash.NewCan(e.fs, "/.trash")
		if err != nil {
			t.Fatal(err)
		}
		e.can = can
		fn(New(e.fs, e.eng, can, Policy{AllowGrep: true}))
	})
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) seedMigrated(t *testing.T, n int, size int64) []pfs.Info {
	t.Helper()
	e.fs.MkdirAll("/data")
	var infos []pfs.Info
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/data/f%03d", i)
		if err := e.fs.WriteFile(p, synthetic.NewUniform(uint64(i+1), size)); err != nil {
			t.Fatal(err)
		}
		info, _ := e.fs.Stat(p)
		infos = append(infos, info)
	}
	if _, err := e.eng.Migrate(infos, hsm.MigrateOptions{Balanced: true}); err != nil {
		t.Fatal(err)
	}
	return infos
}

func TestLsIsMetadataOnly(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(j *Jail) {
		e.seedMigrated(t, 5, 1e6)
		pre := e.lib.TotalStats()
		entries, err := j.Ls("/data")
		if err != nil || len(entries) != 5 {
			t.Fatalf("Ls = %d entries, %v", len(entries), err)
		}
		post := e.lib.TotalStats()
		if post.FilesRead != pre.FilesRead {
			t.Error("ls touched tape")
		}
	})
}

func TestReadRecallsMigratedFile(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(j *Jail) {
		infos := e.seedMigrated(t, 3, 2e6)
		content, err := j.Read(infos[1].Path)
		if err != nil {
			t.Fatal(err)
		}
		if !content.Equal(synthetic.NewUniform(2, 2e6)) {
			t.Error("recalled content mismatch")
		}
		if j.stats.Recalls != 1 {
			t.Errorf("Recalls = %d, want 1", j.stats.Recalls)
		}
		// Second read is a disk hit.
		if _, err := j.Read(infos[1].Path); err != nil {
			t.Fatal(err)
		}
		if j.stats.Recalls != 1 {
			t.Error("resident read triggered a recall")
		}
	})
}

func TestRmGoesToTrashcan(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(j *Jail) {
		infos := e.seedMigrated(t, 1, 1e6)
		tp, err := j.Rm("alice", infos[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		if e.fs.Exists(infos[0].Path) {
			t.Error("rm left the original path")
		}
		if orig, err := e.fs.GetXattr(tp, "trash.orig"); err != nil || orig != infos[0].Path {
			t.Errorf("trash entry %s records origin %q, %v", tp, orig, err)
		}
	})
}

func TestGrepDeniedByDefault(t *testing.T) {
	e := newEnv(t)
	e.clock.Go(func() {
		can, _ := trash.NewCan(e.fs, "/.trash")
		j := New(e.fs, e.eng, can, Policy{}) // grep not allowed
		e.fs.MkdirAll("/data")
		if _, err := j.Grep("/data", []byte("x"), GrepNaive); !errors.Is(err, errForbidden) {
			t.Errorf("err = %v, want ErrForbidden", err)
		}
		if j.stats.Denied != 1 {
			t.Errorf("Denied = %d, want 1", j.stats.Denied)
		}
	})
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGrepFindsPattern(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(j *Jail) {
		e.fs.MkdirAll("/data")
		// A file whose bytes we can predict: generate, pick a window
		// as the pattern.
		content := synthetic.NewUniform(9, 4096)
		e.fs.WriteFile("/data/hit", content)
		e.fs.WriteFile("/data/miss", synthetic.NewUniform(10, 4096))
		pattern := make([]byte, 16)
		content.ReadAt(pattern, 1000)
		res, err := j.Grep("/data", pattern, GrepNaive)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != 1 || res.FilesSearched != 2 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestGrepTapeAwareBeatsNaive(t *testing.T) {
	// The §4.2.3 hazard quantified: naive grep over migrated files
	// recalls them in name-scramble order; the tape-aware variant
	// recalls everything in tape order first.
	grepTime := func(mode grepMode) (time.Duration, tape.Stats) {
		e := newEnv(t)
		var elapsed time.Duration
		e.run(t, func(j *Jail) {
			e.seedMigrated(t, 60, 8e6)
			start := e.clock.Now()
			res, err := j.Grep("/data", []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, mode)
			if err != nil {
				t.Fatal(err)
			}
			if res.FilesRecalled != 60 {
				t.Errorf("recalled %d, want 60", res.FilesRecalled)
			}
			elapsed = e.clock.Now() - start
		})
		return elapsed, e.lib.TotalStats()
	}
	naiveT, naiveStats := grepTime(GrepNaive)
	awareT, awareStats := grepTime(grepTapeAware)
	if awareT >= naiveT {
		t.Errorf("tape-aware grep (%v) should beat naive (%v)", awareT, naiveT)
	}
	if awareStats.Seeks >= naiveStats.Seeks {
		t.Errorf("seeks: aware %d vs naive %d", awareStats.Seeks, naiveStats.Seeks)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(j *Jail) {
		infos := e.seedMigrated(t, 2, 1e6)
		j.Ls("/data")
		j.Read(infos[0].Path)
		j.Rm("bob", infos[1].Path)
		s := j.stats
		if s.Commands != 3 {
			t.Errorf("Commands = %d, want 3", s.Commands)
		}
		if s.FilesRead != 1 || s.FilesMoved != 1 {
			t.Errorf("stats = %+v", s)
		}
	})
}

func TestContainsPatternWindows(t *testing.T) {
	c := synthetic.NewUniform(5, 200<<10) // spans multiple windows
	pat := make([]byte, 8)
	c.ReadAt(pat, 150<<10)
	if !containsPattern(c, pat) {
		t.Error("pattern in later window not found")
	}
	if containsPattern(c, []byte("very-unlikely-pattern-xyzzy")) {
		t.Error("absent pattern reported found")
	}
	if !containsPattern(c, nil) {
		t.Error("empty pattern should match")
	}
}
