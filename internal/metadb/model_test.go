package metadb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// model is a naive reference for DB: records by object ID, and a file
// ID or a path answered by the highest live object ID that carries it.
type model struct {
	recs map[uint64]Record
}

func newModel() *model {
	return &model{recs: map[uint64]Record{}}
}

func (m *model) drop(id uint64) { delete(m.recs, id) }

func (m *model) upsert(r Record) { m.recs[r.ObjectID] = r }

// byFile scans for the highest live object ID carrying fileID.
func (m *model) byFile(fileID uint64) (id uint64, ok bool) {
	return m.highest(func(r Record) bool { return r.FileID == fileID })
}

// byPath scans for the highest live object ID carrying path.
func (m *model) byPath(path string) (id uint64, ok bool) {
	return m.highest(func(r Record) bool { return r.Path == path })
}

func (m *model) highest(match func(Record) bool) (id uint64, ok bool) {
	for oid, r := range m.recs {
		if match(r) && oid > id {
			id, ok = oid, true
		}
	}
	return id, ok
}

// TestModelBasedRandomOps drives the shadow DB with a random
// upsert/delete sequence over small key spaces — so records are
// replaced, deleted and re-inserted at their object's row, and paths
// and file IDs move between objects — and cross-checks every index
// against the reference model after each step. Every step queries
// paths, so the path index is built once and then kept up to date by
// inserts (one with a lower object ID than a path's owner takes
// nothing) or dropped by replaces and deletes and rebuilt.
func TestModelBasedRandomOps(t *testing.T) {
	clock := simtime.NewClock()
	db := New(clock, 0)
	r := rand.New(rand.NewSource(42))
	ref := newModel()

	clock.Go(func() {
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(10); {
			case op < 6: // upsert
				rec := Record{
					ObjectID: uint64(r.Intn(60) + 1),
					FileID:   uint64(r.Intn(80) + 1),
					Path:     fmt.Sprintf("/p/%d", r.Intn(70)),
					Bytes:    int64(r.Intn(1000)),
					Volume:   fmt.Sprintf("VOL%02d", r.Intn(8)),
					Seq:      r.Intn(100) + 1,
				}
				db.Upsert(rec)
				ref.upsert(rec)
			default: // delete
				id := uint64(r.Intn(60) + 1)
				err := db.remove(id)
				_, existed := ref.recs[id]
				if existed != (err == nil) {
					t.Fatalf("step %d: delete(%d) err=%v but existed=%v", step, id, err, existed)
				}
				if existed {
					ref.drop(id)
				}
			}
			checkModel(t, db, ref, step)
		}
	})
	clock.RunFor()
}

// TestRowsAddressedByObjectID walks records through each way a file ID
// or path changes hands, and checks that every row sits at its object
// ID's index: a deleted row is zeroed in place, a re-inserted object
// returns to it, and an object a chunk further on opens the next chunk.
func TestRowsAddressedByObjectID(t *testing.T) {
	clock := simtime.NewClock()
	db := New(clock, 0)
	ref := newModel()
	steps := []struct {
		del uint64 // object to delete, or 0 to upsert rec
		rec Record
	}{
		{rec: rec(1, 10, "/a", "V1", 1)},
		{rec: rec(2, 20, "/b", "V1", 2)},
		{del: 1},                         // zeroes row 1
		{rec: rec(3, 30, "/c", "V2", 1)}, // row 3, not row 1
		{rec: rec(4, 20, "/b", "V2", 2)}, // takes object 2's file ID and path
		{del: 2},                         // must leave object 4's keys alone
		{rec: rec(4, 40, "/d", "V2", 2)}, // replaced in place: /b and 20 go
		{rec: rec(1, 10, "/a", "V1", 1)}, // back, into row 1
		{rec: rec(3, 10, "/a", "V3", 9)}, // replace that steals both keys
		{del: 1},                         // /a and 10 stay with object 3
		{del: 3},                         // and now go
		{rec: rec(chunkLen+2, 50, "/e", "V1", 3)},
		{rec: rec(5, 50, "/e", "V1", 4)},          // file ID 50 and /e stay with the higher ID
		{rec: rec(chunkLen+2, 50, "/e", "V2", 1)}, // a move keeps both
		{del: chunkLen + 2},                       // and both pass down to object 5
	}
	clock.Go(func() {
		for i, st := range steps {
			if st.del != 0 {
				if err := db.remove(st.del); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				ref.drop(st.del)
			} else {
				db.Upsert(st.rec)
				ref.upsert(st.rec)
			}
			checkModel(t, db, ref, i)
		}
		// Row i of chunk c holds object c*chunkLen+i+1 or nothing.
		if len(db.rows) != 2 {
			t.Fatalf("%d row chunks, want 2", len(db.rows))
		}
		for c, chunk := range db.rows {
			for i, r := range chunk {
				want := uint64(c*chunkLen + i + 1)
				if _, live := ref.recs[want]; r.ObjectID != 0 && r.ObjectID != want || live != (r.ObjectID == want) {
					t.Errorf("row %d of chunk %d holds %+v, want object %d (live %v) or nothing", i, c, r, want, live)
				}
			}
		}
	})
	clock.RunFor()
}

func checkModel(t *testing.T, db *DB, ref *model, step int) {
	t.Helper()
	if db.Len() != len(ref.recs) {
		t.Fatalf("step %d: Len=%d, ref=%d", step, db.Len(), len(ref.recs))
	}
	for id, want := range ref.recs {
		got, err := db.ByObjectID(id)
		if err != nil || got != want {
			t.Fatalf("step %d: ByObjectID(%d)=%+v, %v, want %+v", step, id, got, err, want)
		}
	}
	// Every key the model still indexes resolves to its owner; every
	// key it has dropped is gone (a deleted or replaced row never
	// answers for a key it no longer holds). File IDs 1..80 and paths
	// /p/0..69 cover both tests' key spaces.
	for fid := uint64(1); fid <= 80; fid++ {
		got, err := db.ByFileID(fid)
		if id, ok := ref.byFile(fid); ok != (err == nil) || ok && got != ref.recs[id] {
			t.Fatalf("step %d: ByFileID(%d)=%+v, %v; model has owner %d (%v)", step, fid, got, err, id, ok)
		}
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("step %d: ByFileID(%d): %v", step, fid, err)
		}
	}
	for i := 0; i < 70; i++ {
		checkPath(t, db, ref, step, fmt.Sprintf("/p/%d", i))
	}
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e"} {
		checkPath(t, db, ref, step, p)
	}
}

func checkPath(t *testing.T, db *DB, ref *model, step int, path string) {
	t.Helper()
	got, err := byPath(db, path)
	if id, ok := ref.byPath(path); ok != (err == nil) || ok && got != ref.recs[id] {
		t.Fatalf("step %d: byPath(%s)=%+v, %v; model has owner %d (%v)", step, path, got, err, id, ok)
	}
}
