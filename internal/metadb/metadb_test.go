package metadb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/tape"
	"repro/internal/tsm"
)

func newDB() (*simtime.Clock, *DB) {
	c := simtime.NewClock()
	return c, New(c, 100*time.Microsecond)
}

func rec(obj, fid uint64, path, vol string, seq int) Record {
	return Record{ObjectID: obj, FileID: fid, Path: path, Bytes: 100, Volume: vol, Seq: seq}
}

// byPath looks one path up through ByPaths, the only path query.
func byPath(db *DB, path string) (Record, error) {
	if got := db.ByPaths([]string{path}); len(got) == 1 {
		return got[0], nil
	}
	return Record{}, fmt.Errorf("%w: path %s", ErrNotFound, path)
}

func TestUpsertAndLookups(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Upsert(rec(1, 10, "/a", "VOL1", 3))
		db.Upsert(rec(2, 20, "/b", "VOL1", 1))

		if r, err := byPath(db, "/a"); err != nil || r.ObjectID != 1 {
			t.Errorf("byPath = %+v, %v", r, err)
		}
		if r, err := db.ByFileID(20); err != nil || r.ObjectID != 2 {
			t.Errorf("ByFileID = %+v, %v", r, err)
		}
		if r, err := db.ByObjectID(1); err != nil || r.Path != "/a" {
			t.Errorf("ByObjectID = %+v, %v", r, err)
		}
		if db.Len() != 2 {
			t.Errorf("Len = %d, want 2", db.Len())
		}
	})
	c.RunFor()
}

func TestUpsertReplaces(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Upsert(rec(1, 10, "/a", "VOL1", 3))
		db.Upsert(rec(1, 10, "/a", "VOL2", 7)) // moved volumes
		if db.Len() != 1 {
			t.Errorf("Len = %d, want 1", db.Len())
		}
		for _, lookup := range []func() (Record, error){
			func() (Record, error) { return db.ByObjectID(1) },
			func() (Record, error) { return db.ByFileID(10) },
			func() (Record, error) { return byPath(db, "/a") },
		} {
			if r, err := lookup(); err != nil || r.Volume != "VOL2" || r.Seq != 7 {
				t.Errorf("record = %+v, %v", r, err)
			}
		}
	})
	c.RunFor()
}

func TestDelete(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Upsert(rec(1, 10, "/a", "VOL1", 1))
		if err := db.remove(1); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ByObjectID(1); !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
		if _, err := db.ByFileID(10); !errors.Is(err, ErrNotFound) {
			t.Errorf("ByFileID after delete: %v", err)
		}
		if err := db.remove(1); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete: %v", err)
		}
	})
	c.RunFor()
}

func TestByPathsBatch(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Upsert(rec(1, 10, "/a", "V", 1))
		db.Upsert(rec(2, 20, "/b", "V", 2))
		q0 := db.Queries()
		got := db.ByPaths([]string{"/a", "/missing", "/b"})
		if len(got) != 2 {
			t.Errorf("got %d records, want 2", len(got))
		}
		if db.Queries() != q0+1 {
			t.Errorf("batch used %d queries, want 1", db.Queries()-q0)
		}
	})
	c.RunFor()
}

func TestQueriesChargeTime(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Upsert(rec(1, 10, "/a", "V", 1))
		for i := 0; i < 10; i++ {
			db.ByFileID(10)
		}
	})
	end := c.RunFor()
	if end != 10*100*time.Microsecond {
		t.Errorf("10 queries took %v, want 1ms", end)
	}
}

func TestSyncFromTSM(t *testing.T) {
	clock := simtime.NewClock()
	lib := tape.NewLibrary(clock, 2, 10, 1, tape.LTO4())
	srv := tsm.NewServer(clock, tsm.DefaultConfig(), lib)
	db := New(clock, 100*time.Microsecond)
	clock.Go(func() {
		for i := 0; i < 5; i++ {
			if _, err := srv.Store(tsm.StoreRequest{
				Client: "fta01",
				Path:   "/f" + string(rune('0'+i)),
				FileID: uint64(100 + i),
				Bytes:  1e9,
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range srv.Export() {
			db.Apply(o)
		}
		if db.Len() != 5 {
			t.Errorf("Len %d, want 5", db.Len())
		}
		// The shadow answers by file ID and, in one batch, by the paths
		// TSM can only scan for.
		live := srv.LiveObjects()
		paths := make([]string, len(live))
		for i, o := range live {
			paths[i] = o.Path
			r, err := db.ByFileID(o.FileID)
			if err != nil {
				t.Fatal(err)
			}
			if r.ObjectID != o.ID || r.Path != o.Path || r.Volume != o.Volume || r.Seq != o.Seq {
				t.Errorf("ByFileID(%d) = %+v, TSM has %+v", o.FileID, r, o)
			}
		}
		got := db.ByPaths(paths)
		if len(got) != len(live) {
			t.Fatalf("ByPaths found %d of %d rows", len(got), len(live))
		}
		for i, o := range live {
			if r := got[i]; r.ObjectID != o.ID || r.FileID != o.FileID || r.Volume != o.Volume || r.Seq != o.Seq {
				t.Errorf("ByPaths[%d] = %+v, TSM has %+v", i, r, o)
			}
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpsertsAndDrops(t *testing.T) {
	c, db := newDB()
	c.Go(func() {
		db.Apply(tsm.Object{ID: 9, FileID: 90, Path: "/x", Bytes: 5, Volume: "V", Seq: 4})
		r, err := db.ByObjectID(9)
		if err != nil || r.FileID != 90 || r.Seq != 4 {
			t.Errorf("record = %+v, %v", r, err)
		}
		// A move replaces the row in place.
		db.Apply(tsm.Object{ID: 9, FileID: 90, Path: "/x", Bytes: 5, Volume: "W", Seq: 1})
		if r, err := byPath(db, "/x"); err != nil || r.Volume != "W" || r.Seq != 1 || db.Len() != 1 {
			t.Errorf("after move: record = %+v, %v, Len %d", r, err, db.Len())
		}
		// A delete drops it from every index; a delete of an object with
		// no row is a no-op.
		db.Apply(tsm.Object{ID: 9, FileID: 90, Path: "/x", Deleted: true})
		db.Apply(tsm.Object{ID: 10, FileID: 100, Path: "/y", Deleted: true})
		if db.Len() != 0 {
			t.Errorf("Len %d after delete, want 0", db.Len())
		}
		if _, err := db.ByFileID(90); !errors.Is(err, ErrNotFound) {
			t.Errorf("ByFileID after delete: %v, want ErrNotFound", err)
		}
	})
	c.RunFor()
}

// TestUpsertAllocs guards the by-value tables: inserting a row costs an
// allocation only when a row or file-ID chunk opens (one per 1,024 IDs
// each) or a chunk list grows, 31 allocations for 10,000 rows; no index
// hashes or rehashes.
func TestUpsertAllocs(t *testing.T) {
	const n = 10000
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = rec(uint64(i+1), uint64(i+1), fmt.Sprintf("/mig/f%06d", i), "VOL0001", i+1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		db := New(nil, 0)
		for _, r := range recs {
			db.Upsert(r)
		}
	})
	if perRow := allocs / n; perRow >= 0.005 {
		t.Errorf("Upsert: %.4f allocations per row, want < 0.005", perRow)
	}
}

func BenchmarkUpsert(b *testing.B) {
	recs := make([]Record, 1<<16)
	for i := range recs {
		recs[i] = rec(uint64(i+1), uint64(i+1), fmt.Sprintf("/mig/f%06d", i), "VOL0001", i+1)
	}
	db := New(nil, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			db = New(nil, 0)
		}
		db.Upsert(recs[i%len(recs)])
	}
}
