package trash

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hsm"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/tsm"
)

type env struct {
	clock  *simtime.Clock
	fs     *pfs.FS
	srv    *tsm.Server
	shadow *metadb.DB
	eng    *hsm.Engine
	nodes  []*cluster.Node
	can    *Can
	del    *Deleter
	rec    *Reconciler
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	fs := pfs.New(clock, cfg)
	lib := tape.NewLibrary(clock, 4, 32, 2, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	shadow := metadb.New(clock, 100*time.Microsecond)
	srv.OnChange(shadow.Apply)
	cl := cluster.New(clock, cluster.RoadrunnerConfig())
	eng := hsm.New(clock, fs, srv, shadow, cl.Nodes(), hsm.Config{})
	return &env{
		clock: clock, fs: fs, srv: srv, shadow: shadow, eng: eng,
		nodes: cl.Nodes(),
		del:   NewDeleter(fs, srv, shadow),
		rec:   NewReconciler(fs, srv),
	}
}

func (e *env) run(t *testing.T, fn func()) {
	t.Helper()
	e.clock.Go(fn)
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) mkMigrated(t *testing.T, p string, size int64) pfs.Info {
	t.Helper()
	if err := e.fs.MkdirAll(parent(p)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.WriteFile(p, synthetic.NewUniform(uint64(size), size)); err != nil {
		t.Fatal(err)
	}
	info, _ := e.fs.Stat(p)
	if _, err := e.eng.Migrate([]pfs.Info{info}, hsm.MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	info, _ = e.fs.Stat(p)
	return info
}

func parent(p string) string {
	i := strings.LastIndex(p, "/")
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func TestTrashDeleteAndList(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, err := NewCan(e.fs, "/.trash")
		if err != nil {
			t.Fatal(err)
		}
		e.fs.MkdirAll("/d")
		e.fs.WriteFile("/d/f", synthetic.NewUniform(1, 100))
		tp, err := can.Delete("alice", "/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if e.fs.Exists("/d/f") {
			t.Error("original path still exists")
		}
		if !e.fs.Exists(tp) {
			t.Error("trash path missing")
		}
		entries, _ := can.list("alice")
		if len(entries) != 1 {
			t.Errorf("List = %d entries, want 1", len(entries))
		}
		if entries, _ := can.list("bob"); len(entries) != 0 {
			t.Errorf("bob's trash has %d entries", len(entries))
		}
	})
}

func TestUndeleteRestoresOriginal(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.MkdirAll("/d")
		content := synthetic.NewUniform(9, 500)
		e.fs.WriteFile("/d/f", content)
		tp, _ := can.Delete("alice", "/d/f")
		orig, err := can.undelete(tp)
		if err != nil {
			t.Fatal(err)
		}
		if orig != "/d/f" {
			t.Errorf("orig = %s", orig)
		}
		got, err := e.fs.ReadContent("/d/f")
		if err != nil || !got.Equal(content) {
			t.Error("content lost on undelete round trip")
		}
	})
}

func TestUndeleteOutsideCanFails(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.WriteFile("/plain", synthetic.NewUniform(1, 1))
		if _, err := can.undelete("/plain"); err == nil {
			t.Error("expected error undeleting a non-trash path")
		}
	})
}

func TestDeletedAtTimestamp(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.WriteFile("/f", synthetic.NewUniform(1, 1))
		e.clock.Sleep(42 * time.Second)
		tp, _ := can.Delete("alice", "/f")
		at, err := can.deletedAt(tp)
		if err != nil || at != 42*time.Second {
			t.Errorf("deletedAt = %v, %v", at, err)
		}
	})
}

func TestSynchronousPurgeDeletesBothSides(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		info := e.mkMigrated(t, "/d/f", 1e9)
		_ = info
		can.Delete("alice", "/d/f")
		res, err := e.del.Purge(can)
		if err != nil {
			t.Fatal(err)
		}
		if res.Removed != 1 || res.TapeDeletes != 1 {
			t.Errorf("res = %+v", res)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("TSM object survived synchronous delete")
		}
		if e.shadow.Len() != 0 {
			t.Error("shadow row survived synchronous delete")
		}
		// Nothing for reconciliation to find.
		rres, err := e.rec.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if rres.OrphansDeleted != 0 {
			t.Errorf("reconcile found %d orphans after sync delete", rres.OrphansDeleted)
		}
	})
}

func TestPurgeDiskOnlyFiles(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.WriteFile("/f", synthetic.NewUniform(1, 100)) // never migrated
		can.Delete("alice", "/f")
		res, err := e.del.Purge(can)
		if err != nil {
			t.Fatal(err)
		}
		if res.Removed != 1 || res.TapeDeletes != 0 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestUnlinkWithoutSyncDeleteLeavesOrphan(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		e.mkMigrated(t, "/d/f", 1e9)
		// A user bypasses the trashcan and unlinks directly: the tape
		// copy is orphaned.
		if err := e.fs.Remove("/d/f"); err != nil {
			t.Fatal(err)
		}
		if e.srv.NumObjects() != 1 {
			t.Fatal("expected orphaned TSM object")
		}
		res, err := e.rec.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if res.OrphansDeleted != 1 {
			t.Errorf("reconcile deleted %d orphans, want 1", res.OrphansDeleted)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("orphan survived reconcile")
		}
	})
}

func TestReconcileCostScalesWithPopulation(t *testing.T) {
	// The reconcile pass must walk everything; the sync delete touches
	// only the victims. With a large population the difference is the
	// paper's whole argument.
	e := newEnv(t)
	var reconcileTime, syncTime time.Duration
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		// Population: 2000 small resident files.
		e.fs.MkdirAll("/pop")
		specs := make([]pfs.FileSpec, 2000)
		for i := range specs {
			specs[i] = pfs.FileSpec{Path: "/pop/f" + itoa(i), Content: synthetic.NewUniform(uint64(i), 10)}
		}
		e.fs.WriteFiles(specs)
		// One migrated victim.
		e.mkMigrated(t, "/d/victim", 1e9)
		can.Delete("alice", "/d/victim")

		start := e.clock.Now()
		if _, err := e.del.Purge(can); err != nil {
			t.Fatal(err)
		}
		syncTime = e.clock.Now() - start

		start = e.clock.Now()
		if _, err := e.rec.Reconcile(); err != nil {
			t.Fatal(err)
		}
		reconcileTime = e.clock.Now() - start
	})
	if syncTime*10 > reconcileTime {
		t.Errorf("sync delete (%v) should be >10x cheaper than reconcile (%v)", syncTime, reconcileTime)
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

// undelete restores a trashed entry to its original path.
func (c *Can) undelete(trashPath string) (string, error) {
	orig, err := c.fs.GetXattr(trashPath, xattrOrig)
	if err != nil {
		return "", err
	}
	if orig == "" {
		return "", fmt.Errorf("%w: %s", errNotInTrash, trashPath)
	}
	if err := c.fs.Rename(trashPath, orig); err != nil {
		return "", err
	}
	c.fs.SetXattr(orig, xattrOrig, "")
	c.fs.SetXattr(orig, xattrUser, "")
	c.fs.SetXattr(orig, xattrTime, "")
	return orig, nil
}

// list returns the user's trashed entries.
func (c *Can) list(user string) ([]pfs.Info, error) {
	d := path.Join(c.root, user)
	if !c.fs.Exists(d) {
		return nil, nil
	}
	return c.fs.ReadDir(d)
}

// deletedAt reads the deletion timestamp of a trash entry.
func (c *Can) deletedAt(trashPath string) (time.Duration, error) {
	v, err := c.fs.GetXattr(trashPath, xattrTime)
	if err != nil {
		return 0, err
	}
	var ns int64
	if _, err := fmt.Sscan(v, &ns); err != nil {
		return 0, fmt.Errorf("trash: bad timestamp on %s: %v", trashPath, err)
	}
	return time.Duration(ns), nil
}

// errNotInTrash is returned when undeleting a path outside the can.
var errNotInTrash = errors.New("trash: not a trashcan entry")
