package archive

import (
	"fmt"

	"repro/internal/pfs"
)

// AuditResult reports a read-only consistency check of the archive's
// three metadata planes: the file system's stubs, the shadow database,
// and the TSM object inventory. A clean archive — one operated through
// the trashcan and the synchronous deleter — audits with zero findings;
// raw unlinks or a drifted shadow show up here before they bite a
// recall.
type AuditResult struct {
	FilesChecked  int
	StubsChecked  int // migrated/premigrated files verified end to end
	MissingShadow int // stub with no shadow row (tape-ordered recall would fall back to a TSM scan)
	MissingObject int // stub whose TSM object is gone: the data is LOST
	StaleShadow   int // shadow row pointing at a dead/missing TSM object
	Orphans       int // live TSM objects with no file (wasted tape until reconcile)
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

// Audit scans the archive and cross-checks every migrated or
// premigrated file against the shadow database and the TSM inventory,
// then sweeps the inventory for orphans. It charges a full policy scan
// plus one indexed shadow lookup per stub plus a TSM export. Must be
// called from a simulation actor.
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
	for _, stub := range stubs {
		res.StubsChecked++
		rec, err := s.Shadow.ByFileID(uint64(stub.ID))
		if err != nil {
			res.MissingShadow++
			continue
		}
		obj, err := s.TSM.Get(rec.ObjectID)
		if err != nil || obj.Deleted {
			res.StaleShadow++
			if stub.State == pfs.Migrated {
				// The disk copy is gone AND the tape object is gone.
				res.MissingObject++
			}
		}
	}
	for _, obj := range s.TSM.Export() {
		if obj.FileID == 0 {
			continue // aggregates are out of audit scope
		}
		if !liveFileIDs[obj.FileID] {
			res.Orphans++
		}
	}
	return res, nil
}
