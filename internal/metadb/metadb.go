// Package metadb is the indexed shadow of the TSM object database. The
// paper's team could not add indexes to TSM's proprietary DB, so they
// exported the fields PFTool needs — tape volume, tape sequence number,
// and object ID per file — into MySQL and indexed them there (§4.2.5).
// This package plays the MySQL role: an in-memory store keyed by TSM
// object ID with a secondary index by file ID, answering the two
// queries the paper's glue depends on:
//
//   - "what tape and sequence holds this file?" — enabling PFTool's
//     tape-ordered recall, which looks each file up by the file ID its
//     walk resolved (ByFileID) and sorts by volume and sequence, and
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

const chunkLen = 1024 // entries per table chunk

// table is a dense array of T by index, in fixed-size chunks that never
// move; a chunk is allocated by the first write into it.
type table[T any] [][]T

// at returns entry i, or nil if nothing was ever written to its chunk.
func (t table[T]) at(i uint64) *T {
	if c := i / chunkLen; c < uint64(len(t)) && t[c] != nil {
		return &t[c][i%chunkLen]
	}
	return nil
}

// put returns entry i, allocating its chunk.
func (t *table[T]) put(i uint64) *T {
	for uint64(len(*t)) <= i/chunkLen {
		*t = append(*t, nil)
	}
	c := &(*t)[i/chunkLen]
	if *c == nil {
		*c = make([]T, chunkLen)
	}
	return &(*c)[i%chunkLen]
}

// DB is the indexed shadow database. Queries charge a small indexed
// lookup cost; compare tsm.Server.QueryByPath, which scans.
//
// Rows live by value, keyed by the IDs their readers hold. TSM issues
// object IDs densely from 1, so object id's row is entry id-1 of rows (a
// deleted row reads ObjectID 0), and byFileID maps each vfs file ID to
// the highest live object ID that carries it: a file migrated again is
// found at its newest object, whichever older one moves. No program
// reader queries by path: the path index, by the same rule, is built by
// the first path query, then an insert updates it and a replace or
// delete drops it for the next query to rebuild.
type DB struct {
	clock     *simtime.Clock
	queryCost time.Duration
	rows      table[Record]
	live      int
	byFileID  table[fileOwner]
	byPath    map[string]uint64 // path -> highest live object ID; nil until queried
	queries   int
}

// fileOwner is a file ID's index entry: the highest live object ID
// carrying it (0 = none), and how many live rows carry it.
type fileOwner struct {
	object uint64
	rows   int
}

// New creates an empty shadow database. queryCost is the per-query
// indexed lookup charge (a loopback MySQL round trip; ~100µs is
// realistic).
func New(clock *simtime.Clock, queryCost time.Duration) *DB {
	return &DB{clock: clock, queryCost: queryCost}
}

// Queries reports the number of lookups served.
func (db *DB) Queries() int { return db.queries }

// Len reports the number of records.
func (db *DB) Len() int { return db.live }

func (db *DB) charge() {
	db.queries++
	if db.queryCost > 0 {
		db.clock.Sleep(db.queryCost)
	}
}

// row returns the live row of an object, or nil (ID 0 wraps past all).
func (db *DB) row(objectID uint64) *Record {
	if r := db.rows.at(objectID - 1); r != nil && r.ObjectID == objectID {
		return r
	}
	return nil
}

// Upsert inserts or replaces the record for an object (its ID > 0).
func (db *DB) Upsert(r Record) {
	slot := db.rows.put(r.ObjectID - 1)
	if slot.ObjectID == r.ObjectID {
		db.unindex(slot)
	} else {
		db.live++
	}
	*slot = r
	f := db.byFileID.put(r.FileID)
	f.object = max(f.object, r.ObjectID)
	f.rows++
	if db.byPath != nil {
		db.indexPath(slot)
	}
}

// remove deletes the record for an object. Deleting a missing object
// is an error (it signals the shadow drifted from TSM).
func (db *DB) remove(objectID uint64) error {
	r := db.row(objectID)
	if r == nil {
		return fmt.Errorf("%w: object %d", ErrNotFound, objectID)
	}
	db.unindex(r)
	*r = Record{}
	db.live--
	return nil
}

// unindex drops the path index and r's hold on its file ID. When r
// owned the ID, it passes down to the highest other row carrying it.
func (db *DB) unindex(r *Record) {
	f := db.byFileID.at(r.FileID)
	f.rows--
	if f.object == r.ObjectID {
		f.object = 0
		for id := r.ObjectID - 1; f.rows > 0 && f.object == 0; id-- {
			if o := db.row(id); o != nil && o.FileID == r.FileID {
				f.object = id
			}
		}
	}
	db.byPath = nil
}

// indexPath gives r's path to r's object unless a higher one holds it.
func (db *DB) indexPath(r *Record) {
	if db.byPath[r.Path] < r.ObjectID {
		db.byPath[r.Path] = r.ObjectID
	}
}

// ByFileID returns the record for a filesystem file ID — the lookup of
// the synchronous deleter and of PFTool's recall.
func (db *DB) ByFileID(fileID uint64) (Record, error) {
	db.charge()
	if f := db.byFileID.at(fileID); f != nil && f.object != 0 {
		return *db.row(f.object), nil
	}
	return Record{}, fmt.Errorf("%w: file ID %d", ErrNotFound, fileID)
}

// ByObjectID returns the record for a TSM object ID — the only key an
// aggregate's row is found by, since it carries no file ID.
func (db *DB) ByObjectID(objectID uint64) (Record, error) {
	db.charge()
	if r := db.row(objectID); r != nil {
		return *r, nil
	}
	return Record{}, fmt.Errorf("%w: object %d", ErrNotFound, objectID)
}

// ByPaths resolves a batch of paths in one round trip (one charge),
// returning records for the paths that exist, in input order. A path
// resolves to the highest live object ID that carries it.
func (db *DB) ByPaths(paths []string) []Record {
	db.charge()
	if db.byPath == nil {
		db.byPath = make(map[string]uint64, db.live)
		for _, c := range db.rows {
			for i := range c {
				db.indexPath(&c[i]) // a deleted row's ID 0 takes nothing
			}
		}
	}
	out := make([]Record, 0, len(paths))
	for _, p := range paths {
		if id, ok := db.byPath[p]; ok {
			out = append(out, *db.row(id))
		}
	}
	return out
}

// Apply mirrors one TSM catalog change: a deleted object's row goes
// (if it has one), any other object's row is inserted or replaced.
func (db *DB) Apply(o tsm.Object) {
	if o.Deleted {
		_ = db.remove(o.ID)
		return
	}
	db.Upsert(Record{ObjectID: o.ID, FileID: o.FileID, Path: o.Path, Bytes: o.Bytes, Volume: o.Volume, Seq: o.Seq})
}
