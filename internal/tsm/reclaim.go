package tsm

import (
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/tape"
)

// Reclamation is the TSM space-reclaim process: a volume whose live
// fraction has dropped below a threshold (because logical deletes left
// dead objects behind) has its surviving objects copied to a fresh
// volume and is then returned to scratch. The paper's synchronous
// deleter makes deletes immediate on the *database* side; the tape
// blocks themselves still come back only through reclamation, exactly
// as in the real product.

// ReclaimResult reports one reclamation pass.
type ReclaimResult struct {
	VolumesExamined  int
	VolumesReclaimed int
	ObjectsMoved     int
	BytesMoved       int64
	BytesFreed       int64
	// CorruptSkipped counts survivors whose re-read failed checksum
	// verification: they are left on the (now quarantined, never
	// erased) source volume for the scrubber's repair machinery rather
	// than consolidated — moving them would launder corrupt bytes onto
	// a healthy volume and destroy the only remaining evidence.
	CorruptSkipped int
	Elapsed        time.Duration
}

// ReclaimThreshold runs reclamation over every volume whose live-data
// fraction is at or below threshold (0 reclaims only fully-dead
// volumes; 0.5 reclaims volumes at most half live). The mover runs as
// the named client through the normal LAN-free path.
func (s *Server) ReclaimThreshold(client string, threshold float64) (ReclaimResult, error) {
	start := s.clock.Now()
	res := ReclaimResult{}
	// Candidate volumes are fixed up front; liveness is recomputed per
	// volume at examination time, because earlier reclaims move live
	// objects onto later volumes.
	candidates := s.lib.Cartridges()
	for _, vol := range candidates {
		used := vol.Used()
		if used == 0 || s.copyPool[vol.Label] {
			continue
		}
		res.VolumesExamined++
		var live int64
		var objs []*Object
		for _, id := range s.order {
			o := s.db.get(id)
			if !o.Deleted && o.Volume == vol.Label {
				live += o.Bytes
				objs = append(objs, o)
			}
		}
		if float64(live) > threshold*float64(used) {
			continue
		}
		moved, movedBytes, skipped, err := s.reclaimVolume(client, vol, objs, live)
		res.ObjectsMoved += moved
		res.BytesMoved += movedBytes
		res.CorruptSkipped += skipped
		if err != nil {
			return res, err
		}
		if skipped == 0 {
			res.VolumesReclaimed++
			res.BytesFreed += used - live
		}
	}
	res.Elapsed = s.clock.Now() - start
	return res, nil
}

// reclaimVolume relocates a volume's live objects (live bytes in all)
// in tape order and erases the source. Every digest-tracked survivor
// is re-verified as it comes off the tape: a mismatch means the
// consolidation would propagate corrupt bytes, so that object stays
// put, the source is quarantined instead of erased, and the skip is
// reported for the scrubber to repair properly.
func (s *Server) reclaimVolume(client string, src *tape.Cartridge, objs []*Object, live int64) (moved int, movedBytes int64, skipped int, err error) {
	// One admission per volume consolidated: reclamation is scavenger
	// work under the system tenant — it must yield to everything else.
	grant := s.sch.Station(sched.StationReclaim).Admit(sched.Item{
		QoS:  sched.QoS{Tenant: "system", Class: sched.Scavenger},
		Kind: "tsm.reclaim", Units: live,
	})
	defer grant.Done()
	s.reclaiming[src.Label] = true
	defer delete(s.reclaiming, src.Label)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Seq < objs[j].Seq })
	for _, o := range objs {
		// Read the object off the old volume in one session per object
		// (objects are already sorted, so the tape streams forward).
		delivered, headCause, err := s.readObject(client, src, o.Seq, nil)
		if err != nil {
			return moved, movedBytes, skipped, err
		}
		if o.Sum != 0 && delivered != o.Sum {
			s.noteDetection(o, "reclaim", s.corruptionCause(src, o.Seq, 0, false, headCause))
			skipped++
			continue
		}
		// Relocate it through the normal store path (no client data
		// path: the move is tape-to-tape via the mover's buffers). The
		// catalog digest rides along: the new copy is born verifiable.
		if err := s.relocate(client, o, nil); err != nil {
			return moved, movedBytes, skipped, err
		}
		moved++
		movedBytes += o.Bytes
	}
	if skipped > 0 {
		// Corrupt survivors remain: erasing would destroy the only
		// on-site copy. Quarantine the volume and leave it for repair.
		s.Quarantine(src.Label)
		s.txn()
		return moved, movedBytes, skipped, nil
	}
	// Erase the source volume and return it to scratch (no session:
	// that would add a label verify).
	d, err := s.volumeDrive(src)
	if err != nil {
		return moved, movedBytes, skipped, err
	}
	if err := d.Unmount(); err != nil {
		s.releaseDrive(d)
		return moved, movedBytes, skipped, err
	}
	src.Erase()
	s.releaseDrive(d)
	s.txn()
	return moved, movedBytes, skipped, nil
}
