package trash

import (
	"fmt"
	"testing"

	"repro/internal/chunkfs"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/synthetic"
)

func TestDeleteMissingPathFails(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		if _, err := can.Delete("alice", "/ghost"); err == nil {
			t.Error("deleting a missing path should fail")
		}
	})
}

func TestListUnknownUserEmpty(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		entries, err := can.list("nobody")
		if err != nil || entries != nil {
			t.Errorf("List = %v, %v", entries, err)
		}
	})
}

func TestDeletedAtOnNonTrashFails(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.WriteFile("/plain", synthetic.NewUniform(1, 1))
		if _, err := can.deletedAt("/plain"); err == nil {
			t.Error("expected error for a non-trash path")
		}
	})
}

func TestTrashCollisionSameBaseName(t *testing.T) {
	// Two files with the same base name from different directories must
	// coexist in the can (the file-ID prefix disambiguates).
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.MkdirAll("/a")
		e.fs.MkdirAll("/b")
		e.fs.WriteFile("/a/data", synthetic.NewUniform(1, 10))
		e.fs.WriteFile("/b/data", synthetic.NewUniform(2, 20))
		t1, err := can.Delete("alice", "/a/data")
		if err != nil {
			t.Fatal(err)
		}
		t2, err := can.Delete("alice", "/b/data")
		if err != nil {
			t.Fatal(err)
		}
		if t1 == t2 {
			t.Fatal("trash paths collide")
		}
		entries, _ := can.list("alice")
		if len(entries) != 2 {
			t.Errorf("entries = %d, want 2", len(entries))
		}
		// Both undelete to their original homes.
		if orig, _ := can.undelete(t1); orig != "/a/data" {
			t.Errorf("undelete 1 -> %s", orig)
		}
		if orig, _ := can.undelete(t2); orig != "/b/data" {
			t.Errorf("undelete 2 -> %s", orig)
		}
	})
}

func TestOverwriteInterceptionFeedsSyncDeleter(t *testing.T) {
	// §6.3: a FUSE layer that intercepts overwrites moves the old
	// chunks into the trashcan, where the synchronous deleter reaps
	// their tape copies — no reconcile needed.
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.MkdirAll("/d")
		plan, dir, err := chunkfs.PrepareDir(e.fs, "/d/big", 10e6, 4e6)
		if err != nil {
			t.Fatal(err)
		}
		content := synthetic.NewUniform(1, 10e6)
		specs := make([]pfs.FileSpec, plan.NumChunks)
		for i := range specs {
			off, length := plan.ChunkRange(i)
			specs[i] = pfs.FileSpec{Path: dir + "/" + chunkfs.ChunkName(i), Content: content.Slice(off, length)}
		}
		if err := e.fs.WriteFiles(specs); err != nil {
			t.Fatal(err)
		}
		// Migrate the chunks so tape copies exist.
		chunks, _ := e.fs.ReadDir(dir)
		if _, err := e.eng.Migrate(chunks, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		// User overwrites the logical file: the old chunks move into
		// the can instead of being truncated in place.
		e.fs.MkdirAll("/.trash/alice")
		for _, c := range chunks {
			if err := e.fs.Rename(c.Path, fmt.Sprintf("/.trash/alice/%d-%s", c.ID, c.Name)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.del.Purge(can)
		if err != nil {
			t.Fatal(err)
		}
		if res.TapeDeletes != 3 {
			t.Errorf("TapeDeletes = %d, want 3", res.TapeDeletes)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("tape objects survived")
		}
		rres, _ := e.rec.Reconcile()
		if rres.OrphansDeleted != 0 {
			t.Errorf("reconcile found %d orphans", rres.OrphansDeleted)
		}
	})
}

func TestReconcileSkipsBackupClassAndAggregates(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		// Aggregates carry FileID 0 and are never reconciled (their
		// members' lifecycle is the engine's responsibility).
		e.fs.MkdirAll("/d")
		var infos []pfs.Info
		for i := 0; i < 5; i++ {
			p := "/d/s" + string(rune('0'+i))
			e.fs.WriteFile(p, synthetic.NewUniform(uint64(i+1), 8e6))
			info, _ := e.fs.Stat(p)
			infos = append(infos, info)
		}
		aggEng := hsm.New(e.clock, e.fs, e.srv, e.shadow, e.nodes, hsm.Config{AggregateThreshold: 100e6})
		if _, err := aggEng.Migrate(infos, hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := e.rec.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if res.OrphansDeleted != 0 {
			t.Errorf("reconcile deleted %d aggregate objects", res.OrphansDeleted)
		}
	})
}

func TestPurgeIgnoresSubdirectoriesInCan(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		can, _ := NewCan(e.fs, "/.trash")
		e.fs.MkdirAll("/.trash/alice/strange-subdir")
		res, err := e.del.Purge(can)
		if err != nil {
			t.Fatal(err)
		}
		if res.Removed != 0 {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestDeleteOneShadowErrorPropagates(t *testing.T) {
	e := newEnv(t)
	e.run(t, func() {
		// A file whose shadow entry is stale (object already deleted
		// from TSM but the shadow row remains): DeleteOne still
		// completes (TSM's ErrNoSuchObject is tolerated).
		info := e.mkMigrated(t, "/d/f", 1e6)
		rec, err := e.shadow.ByFileID(uint64(info.ID))
		if err != nil {
			t.Fatal(err)
		}
		e.srv.Delete(rec.ObjectID)
		var res PurgeResult
		if err := e.del.deleteOne(info, &res); err != nil {
			t.Fatal(err)
		}
		if res.Removed != 1 {
			t.Errorf("res = %+v", res)
		}
	})
}
