package archive

import (
	"fmt"

	"repro/internal/metadb"
	"repro/internal/pfs"
)

// AuditResult reports a read-only consistency check of the archive's
// three metadata planes: the file system's stubs, the shadow database,
// and the TSM object inventory. The shadow follows TSM's change feed,
// so a clean archive — one operated through the trashcan and the
// synchronous deleter — audits with zero findings; raw unlinks, an
// operator's TSM delete or a drifted shadow show up here before they
// bite a recall.
type AuditResult struct {
	FilesChecked  int
	StubsChecked  int // migrated/premigrated files verified end to end
	MissingShadow int // stub with no shadow row though TSM holds its object (tape-ordered recall would fall back to a TSM scan)
	MissingObject int // stub no live TSM object carries: a migrated stub's data is LOST
	StaleShadow   int // shadow row naming a dead/missing TSM object or another volume/seq than the object's
	Orphans       int // live TSM objects with no file, or bundles no stub is a member of (wasted tape until reconcile)
}

// Clean reports whether the audit found nothing wrong.
func (a AuditResult) Clean() bool {
	return a.MissingShadow == 0 && a.MissingObject == 0 && a.StaleShadow == 0 && a.Orphans == 0
}

// String renders the audit findings.
func (a AuditResult) String() string {
	status := "CLEAN"
	if !a.Clean() {
		status = "INCONSISTENT"
	}
	return fmt.Sprintf(
		"audit %s: %d files (%d stubs) checked; missing shadow rows %d, lost objects %d, stale shadow rows %d, orphaned tape objects %d",
		status, a.FilesChecked, a.StubsChecked, a.MissingShadow, a.MissingObject, a.StaleShadow, a.Orphans)
}

// Audit scans the archive, exports the TSM inventory — indexing it by
// file ID and sweeping it for orphans — and cross-checks every migrated
// or premigrated file against that index and the shadow database: the
// file must be carried by a live object, have a shadow row, and the row
// must name its object's current volume and sequence. A member of an
// aggregate is carried by its bundle, whose object and row hold no file
// ID: hsm's member index names the bundle, and the member is checked
// against that object and its row; a live bundle no scanned stub is a
// member of is an orphan. It charges a full policy scan plus
// a TSM export plus one indexed shadow lookup per stub. Must be called
// from a simulation actor.
func (s *System) Audit() (AuditResult, error) {
	res := AuditResult{}
	liveFileIDs := make(map[uint64]bool)
	var stubs []pfs.Info
	err := s.Archive.Scan(func(i pfs.Info) error {
		if i.IsDir() {
			return nil
		}
		res.FilesChecked++
		liveFileIDs[uint64(i.ID)] = true
		if i.State != pfs.Resident {
			stubs = append(stubs, i)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	carried := make(map[uint64]bool)  // file IDs some live object carries
	liveAggs := make(map[uint64]bool) // live aggregate object ID -> a scanned stub is a member
	for _, obj := range s.TSM.Export() {
		if obj.FileID == 0 {
			liveAggs[obj.ID] = false
			continue
		}
		carried[obj.FileID] = true
		if !liveFileIDs[obj.FileID] {
			res.Orphans++
		}
	}
	for _, st := range stubs {
		res.StubsChecked++
		id := uint64(st.ID)
		ok := carried[id]
		var rec metadb.Record
		var err error
		aggID, member := s.HSM.AggregateOf(st.ID)
		_, bundled := liveAggs[aggID]
		if bundled {
			liveAggs[aggID] = true
		}
		if member && !ok {
			ok = bundled
			rec, err = s.Shadow.ByObjectID(aggID)
		} else {
			rec, err = s.Shadow.ByFileID(id)
		}
		switch {
		case !ok:
			res.MissingObject++
		case err != nil:
			res.MissingShadow++
		}
		if err != nil {
			continue
		}
		obj, err := s.TSM.Get(rec.ObjectID)
		if err != nil || obj.Deleted || obj.Volume != rec.Volume || obj.Seq != rec.Seq {
			res.StaleShadow++
		}
	}
	for _, named := range liveAggs {
		if !named {
			res.Orphans++
		}
	}
	return res, nil
}
