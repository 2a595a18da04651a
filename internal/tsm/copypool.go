// Copy storage pool: a second set of tape volumes holding duplicates
// of primary data, the TSM "backup stgpool" construct the paper's site
// runs nightly. The pool exists for exactly one reason — when a
// primary volume develops silent damage, the duplicate is the repair
// source — so copy volumes are never primary write targets and the
// object catalog keeps a separate copy-location map.

package tsm

import (
	"fmt"
	"sort"

	"repro/internal/tape"
	"repro/internal/telemetry"
)

// copyLoc is where an object's copy-pool duplicate lives.
type copyLoc struct {
	Volume string
	Seq    int
}

// AddCopyPool creates n fresh cartridges labeled prefix000.. and
// registers them as the copy storage pool: excluded from every primary
// write path, eligible only for BackupPool writes and RepairObject
// reads. Returns the new labels.
func (s *Server) AddCopyPool(prefix string, n int, capacity int64) []string {
	labels := make([]string, 0, n)
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%s%03d", prefix, i)
		s.lib.AddCartridge(tape.NewCartridge(label, capacity))
		s.copyPool[label] = true
		s.copyOrder = append(s.copyOrder, label)
		labels = append(labels, label)
	}
	return labels
}

// CopyPoolVolumes lists the copy-pool labels in insertion order.
func (s *Server) CopyPoolVolumes() []string {
	return append([]string(nil), s.copyOrder...)
}

// acquireCopyDrive returns a held drive with a copy-pool volume
// mounted that fits the object. Copy volumes fill in insertion order,
// like the sequential-access pools they model.
func (s *Server) acquireCopyDrive(bytes int64) (*tape.Drive, *tape.Cartridge, error) {
	s.drvPool.Acquire(1)
	for _, label := range s.copyOrder {
		c, err := s.lib.Cartridge(label)
		if err != nil || c.ReadOnly() || c.Remaining() < bytes || s.quarantine[label] {
			continue
		}
		d, err := s.acquireVolumeDrive(c)
		if err != nil {
			s.drvPool.Release(1)
			return nil, nil, err
		}
		// Capacity may have been consumed while we queued for the drive.
		if d.Mounted() == c && !c.ReadOnly() && c.Remaining() >= bytes {
			return d, c, nil
		}
		d.Release()
	}
	s.drvPool.Release(1)
	return nil, nil, tape.ErrNoScratch
}

// appendCopy writes one object's bytes (carrying digest sum) to a
// copy-pool volume in its own drive session and returns where they
// landed. The caller owns the retry policy and the catalog entry.
func (s *Server) appendCopy(client string, id uint64, bytes int64, sum uint64, sp *telemetry.Span) (copyLoc, error) {
	d, vol, err := s.acquireCopyDrive(bytes)
	if err != nil {
		return copyLoc{}, err
	}
	if err := s.beginSession(d, client, sp); err != nil {
		return copyLoc{}, err
	}
	tf, err := d.AppendSum(id, bytes, sum)
	s.releaseDrive(d)
	if err != nil {
		return copyLoc{}, err
	}
	return copyLoc{Volume: vol.Label, Seq: tf.Seq}, nil
}

// BackupPool duplicates every live object that does not yet have a
// copy-pool entry — the incremental nightly "backup stgpool" pass —
// and returns how many duplicates it wrote.
// Each object is read from its primary volume and re-written to a
// copy volume; a primary read that already fails its catalog digest
// is detected, skipped (duplicating damage would poison the repair
// source), and left for the scrubber. The read and the write never
// hold two drives at once, so the pass cannot deadlock a small
// library.
func (s *Server) BackupPool(client string) (objects int, err error) {
	s.reapDownDrives()
	s.txn()
	sp := s.tel.StartSpan("tsm.backup-pool", "client", client)
	// Work list: live, digest-tracked or not, no duplicate yet; tape
	// order within each volume so the pass streams.
	var todo []*Object
	for _, id := range s.order {
		o := s.db.get(id)
		if o.Deleted || s.copyPool[o.Volume] {
			continue
		}
		if _, done := s.copies[id]; done {
			continue
		}
		todo = append(todo, o)
	}
	sort.Slice(todo, func(i, j int) bool {
		if todo[i].Volume != todo[j].Volume {
			return todo[i].Volume < todo[j].Volume
		}
		return todo[i].Seq < todo[j].Seq
	})
	for _, obj := range todo {
		vol, err := s.lib.Cartridge(obj.Volume)
		if err != nil {
			sp.Abort(err.Error(), 0)
			return objects, err
		}
		delivered, headCause, err := s.readObject(client, vol, obj.Seq, sp)
		if err != nil {
			sp.Abort(err.Error(), 0)
			return objects, err
		}
		if obj.Sum != 0 && delivered != obj.Sum {
			s.noteDetection(obj, "backup", s.corruptionCause(vol, obj.Seq, 0, false, headCause))
			continue
		}
		loc, err := s.appendCopy(client, obj.ID, obj.Bytes, delivered, sp)
		if err != nil {
			sp.Abort(err.Error(), 0)
			return objects, err
		}
		s.copies[obj.ID] = loc
		objects++
		s.tel.Counter("tsm_copy_objects_total").Inc()
		s.tel.Counter("tsm_copy_bytes_total").Add(float64(obj.Bytes))
	}
	s.txn() // commit the copy map
	sp.SetAttr("objects", fmt.Sprint(objects))
	sp.End()
	return objects, nil
}

// readObject reads one tape file in its own drive session and returns
// the delivered digest plus any drive-head corruption cause.
func (s *Server) readObject(client string, vol *tape.Cartridge, seq int, parent *telemetry.Span) (delivered, headCause uint64, err error) {
	d, err := s.volumeSession(vol, client, parent)
	if err != nil {
		return 0, 0, err
	}
	_, delivered, err = d.ReadSeqSum(seq)
	headCause = d.CorruptCause()
	s.releaseDrive(d)
	return delivered, headCause, err
}

// repairObject re-stages one object from its copy-pool duplicate onto
// a healthy primary volume: read the copy, verify it against the
// catalog, and relocate the object. The quarantined original is left
// in place for the operator; reclamation will eventually retire it.
// Fails with ErrNoCopy when no duplicate exists or the duplicate is
// itself corrupt.
func (s *Server) repairObject(client string, id uint64) error {
	obj := s.db.get(id)
	if obj == nil || obj.Deleted {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, id)
	}
	loc, ok := s.copies[id]
	if !ok {
		return fmt.Errorf("%w: %d (never duplicated)", errNoCopy, id)
	}
	cvol, err := s.lib.Cartridge(loc.Volume)
	if err != nil {
		return err
	}
	sp := s.tel.StartSpan("tsm.repair",
		"object", fmt.Sprint(id), "from", loc.Volume, "bad", obj.Volume)
	delivered, _, err := s.readObject(client, cvol, loc.Seq, sp)
	if err != nil {
		sp.Abort(err.Error(), 0)
		return err
	}
	if obj.Sum != 0 && delivered != obj.Sum {
		err := fmt.Errorf("%w: %d (copy on %s also corrupt)", errNoCopy, id, loc.Volume)
		sp.Abort(err.Error(), 0)
		return err
	}
	if err := s.relocate(client, obj, sp); err != nil {
		sp.Abort(err.Error(), 0)
		return err
	}
	s.ctrRepaired.Inc()
	sp.SetAttr("to", obj.Volume)
	sp.End()
	return nil
}

// rewriteObject writes a fresh, digest-correct primary copy of an
// object — the repair path when the good source is outside the
// library entirely (e.g. a premigrated file still resident on disk).
// The caller asserts the source matches the catalog digest.
func (s *Server) rewriteObject(client string, id uint64) error {
	obj := s.db.get(id)
	if obj == nil || obj.Deleted {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, id)
	}
	sp := s.tel.StartSpan("tsm.repair",
		"object", fmt.Sprint(id), "from", "source", "bad", obj.Volume)
	if err := s.relocate(client, obj, sp); err != nil {
		sp.Abort(err.Error(), 0)
		return err
	}
	s.ctrRepaired.Inc()
	sp.SetAttr("to", obj.Volume)
	sp.End()
	return nil
}

// relocate writes obj's bytes (with its catalog digest) to a fresh
// primary location, repoints the catalog and notifies the OnChange
// hooks: the one move repair and reclamation share, so no move can
// leave a mirror of the catalog behind.
func (s *Server) relocate(client string, obj *Object, sp *telemetry.Span) error {
	d, vol, err := s.acquireDriveForWrite(client, obj.Group, obj.Bytes)
	if err != nil {
		return err
	}
	if err := s.beginSession(d, client, sp); err != nil {
		return err
	}
	tf, err := d.AppendSum(obj.ID, obj.Bytes, obj.Sum)
	s.releaseDrive(d)
	if err != nil {
		return err
	}
	s.txn()
	obj.Volume = vol.Label
	obj.Seq = tf.Seq
	if obj.Group != "" {
		s.coloc[obj.Group] = vol.Label
	}
	s.changed(obj)
	return nil
}
