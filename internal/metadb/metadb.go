// Package metadb is the indexed shadow of the TSM object database. The
// paper's team could not add indexes to TSM's proprietary DB, so they
// exported the fields PFTool needs — tape volume, tape sequence number,
// and object ID per file — into MySQL and indexed them there (§4.2.5).
// This package plays the MySQL role: an in-memory store with secondary
// indexes by path, file ID and object ID, answering the two queries the
// paper's glue depends on:
//
//   - "what tape and sequence holds this file?" — enabling PFTool's
//     tape-ordered recall, which looks each path up (ByPath, ByPaths)
//     and sorts by volume and sequence itself, and
//   - "what TSM object ID matches this GPFS file ID?" — enabling the
//     synchronous deleter.
//
// archive.New subscribes DB.Apply to tsm.Server.OnChange: the shadow
// follows every store, move and delete, and nothing else writes it.
package metadb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/tsm"
)

// ErrNotFound is returned when no record matches a query.
var ErrNotFound = errors.New("metadb: record not found")

// Record is one row of the shadow database.
type Record struct {
	ObjectID uint64
	FileID   uint64
	Path     string
	Bytes    int64
	Volume   string
	Seq      int
}

// slotChunk is the number of records one DB chunk holds.
const slotChunk = 1024

// DB is the indexed shadow database. Queries charge a small indexed
// lookup cost; compare tsm.Server.QueryByPath, which scans.
//
// Records live by value in fixed-size chunks, addressed by slot; the
// indexes map keys to slots, values the garbage collector need not
// scan. A deleted record's slot goes on the free list for the next
// insert.
type DB struct {
	clock     *simtime.Clock
	queryCost time.Duration

	chunks [][]Record
	free   []int32 // released slots, reused last-in first-out
	slots  int32   // slots ever handed out

	byObject map[uint64]int32
	byFileID map[uint64]int32
	byPath   map[string]int32

	queries int
}

// New creates an empty shadow database. queryCost is the per-query
// indexed lookup charge (a loopback MySQL round trip; ~100µs is
// realistic).
func New(clock *simtime.Clock, queryCost time.Duration) *DB {
	return &DB{
		clock:     clock,
		queryCost: queryCost,
		byObject:  map[uint64]int32{},
		byFileID:  map[uint64]int32{},
		byPath:    map[string]int32{},
	}
}

// Queries reports the number of lookups served.
func (db *DB) Queries() int { return db.queries }

// Len reports the number of records.
func (db *DB) Len() int { return len(db.byObject) }

func (db *DB) charge() {
	db.queries++
	if db.queryCost > 0 {
		db.clock.Sleep(db.queryCost)
	}
}

// rec returns the record in slot i.
func (db *DB) rec(i int32) *Record { return &db.chunks[i/slotChunk][i%slotChunk] }

// alloc hands out a free slot.
func (db *DB) alloc() int32 {
	if n := len(db.free); n > 0 {
		i := db.free[n-1]
		db.free = db.free[:n-1]
		return i
	}
	if db.slots%slotChunk == 0 {
		db.chunks = append(db.chunks, make([]Record, slotChunk))
	}
	db.slots++
	return db.slots - 1
}

// Upsert inserts or replaces the record for an object.
func (db *DB) Upsert(r Record) {
	i, ok := db.byObject[r.ObjectID]
	if ok {
		db.unindex(i)
	} else {
		i = db.alloc()
		db.byObject[r.ObjectID] = i
	}
	*db.rec(i) = r
	db.byFileID[r.FileID] = i
	db.byPath[r.Path] = i
}

// Delete removes the record for an object. Deleting a missing object
// is an error (it signals the shadow drifted from TSM).
func (db *DB) Delete(objectID uint64) error {
	i, ok := db.byObject[objectID]
	if !ok {
		return fmt.Errorf("%w: object %d", ErrNotFound, objectID)
	}
	db.unindex(i)
	delete(db.byObject, objectID)
	*db.rec(i) = Record{}
	db.free = append(db.free, i)
	return nil
}

// unindex drops slot i's file ID and path entries, unless a later
// record has since taken them over.
func (db *DB) unindex(i int32) {
	r := db.rec(i)
	if cur, ok := db.byFileID[r.FileID]; ok && cur == i {
		delete(db.byFileID, r.FileID)
	}
	if cur, ok := db.byPath[r.Path]; ok && cur == i {
		delete(db.byPath, r.Path)
	}
}

// ByPath returns the record for a client path.
func (db *DB) ByPath(path string) (Record, error) {
	db.charge()
	i, ok := db.byPath[path]
	if !ok {
		return Record{}, fmt.Errorf("%w: path %s", ErrNotFound, path)
	}
	return *db.rec(i), nil
}

// ByFileID returns the record for a filesystem file ID — the
// synchronous deleter's lookup.
func (db *DB) ByFileID(fileID uint64) (Record, error) {
	db.charge()
	i, ok := db.byFileID[fileID]
	if !ok {
		return Record{}, fmt.Errorf("%w: file ID %d", ErrNotFound, fileID)
	}
	return *db.rec(i), nil
}

// ByObjectID returns the record for a TSM object ID — the only key an
// aggregate's row is found by, since it carries no file ID.
func (db *DB) ByObjectID(objectID uint64) (Record, error) {
	db.charge()
	i, ok := db.byObject[objectID]
	if !ok {
		return Record{}, fmt.Errorf("%w: object %d", ErrNotFound, objectID)
	}
	return *db.rec(i), nil
}

// ByPaths resolves a batch of paths in one round trip (one charge),
// returning records for the paths that exist, in input order.
func (db *DB) ByPaths(paths []string) []Record {
	db.charge()
	out := make([]Record, 0, len(paths))
	for _, p := range paths {
		if i, ok := db.byPath[p]; ok {
			out = append(out, *db.rec(i))
		}
	}
	return out
}

// Apply mirrors one TSM catalog change: a deleted object's row goes
// (if it has one), any other object's row is inserted or replaced.
func (db *DB) Apply(o tsm.Object) {
	if o.Deleted {
		_ = db.Delete(o.ID)
		return
	}
	db.Upsert(Record{
		ObjectID: o.ID,
		FileID:   o.FileID,
		Path:     o.Path,
		Bytes:    o.Bytes,
		Volume:   o.Volume,
		Seq:      o.Seq,
	})
}
