package tsm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/tape"
)

// errNoCopy means an object needs repair but has no surviving good
// copy: no copy-pool duplicate, and the duplicate (if any) is itself
// corrupt.
var errNoCopy = errors.New("tsm: no good copy of object")

// integrityError reports a checksum mismatch that could not be cured:
// every re-read and copy-pool repair failed, so the recall surfaces a
// typed error instead of silently delivering wrong bytes. CauseEvent,
// when nonzero, is the telemetry event ID of the fault that injected
// the corruption — the thread an operator pulls to find the blast
// radius of one bad component.
type integrityError struct {
	ObjectID   uint64
	Path       string // client namespace path
	Volume     string // primary volume holding the damaged copy
	Seq        int    // tape sequence number on that volume
	Offset     int64  // byte offset of the damage on the volume (-1 unknown)
	Want       uint64 // catalog digest
	CauseEvent uint64 // fault event that injected the corruption (0 unknown)
	Reason     string // why repair failed
}

func (e *integrityError) Error() string {
	off := "?"
	if e.Offset >= 0 {
		off = strconv.FormatInt(e.Offset, 10)
	}
	return fmt.Sprintf("tsm: integrity: object %d (%s) on %s seq %d @%s: %s",
		e.ObjectID, e.Path, e.Volume, e.Seq, off, e.Reason)
}

// Quarantine marks a volume as holding detected corruption: it is
// dropped from every write path (scratch selection, co-location,
// affinity reuse, reclamation targets) until an operator audits it.
// Reads are still allowed — other files on the volume may be fine, and
// quarantined data is still the only source for objects the copy pool
// missed.
func (s *Server) Quarantine(label string) {
	if s.quarantine[label] {
		return
	}
	s.quarantine[label] = true
	s.tel.Event("quarantine", "component", "volume:"+label)
}

// Unquarantine clears a volume's quarantine (operator action after an
// audit, or a scrub pass that found the volume clean again).
func (s *Server) Unquarantine(label string) { delete(s.quarantine, label) }

// quarantined reports whether a volume is quarantined.
func (s *Server) quarantined(label string) bool { return s.quarantine[label] }

// QuarantinedVolumes lists quarantined volume labels, sorted.
func (s *Server) QuarantinedVolumes() []string {
	out := make([]string, 0, len(s.quarantine))
	for label := range s.quarantine {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// writeOK reports whether a volume may receive new primary data:
// volumes mid-reclamation, quarantined, or belonging to the copy pool
// never do.
func (s *Server) writeOK(label string) bool {
	return !s.reclaiming[label] && !s.quarantine[label] && !s.copyPool[label]
}

// corruptionCause picks the most specific fault event for a mismatch:
// the on-media damage record if the cartridge has one, else the
// in-flight link taint, else whatever the drive head's corruption arm
// recorded.
func (s *Server) corruptionCause(vol *tape.Cartridge, seq int, taintCause uint64, tainted bool, headCause uint64) uint64 {
	if c, ok := vol.CorruptionFor(seq); ok && c.Cause != 0 {
		return c.Cause
	}
	if tainted {
		return taintCause
	}
	return headCause
}

// noteDetection records one checksum-mismatch detection: the
// detection counter and an aborted "tsm.integrity" span citing the
// provoking fault event — the causality link E18 asserts on.
func (s *Server) noteDetection(obj *Object, phase string, cause uint64) {
	s.ctrDetected.Inc()
	sp := s.tel.StartSpan("tsm.integrity",
		"volume", obj.Volume,
		"object", strconv.FormatUint(obj.ID, 10),
		"path", obj.Path,
		"phase", phase)
	sp.Abort(fmt.Sprintf("checksum mismatch: %s seq %d (%s)", obj.Volume, obj.Seq, phase), cause)
}

// unrepairable finalizes a detection that nothing could cure into a
// typed *IntegrityError.
func (s *Server) unrepairable(obj *Object, vol *tape.Cartridge, cause uint64, why string) error {
	s.ctrUnrepair.Inc()
	off := int64(-1)
	if c, ok := vol.CorruptionFor(obj.Seq); ok {
		off = c.Off
	}
	return &integrityError{
		ObjectID:   obj.ID,
		Path:       obj.Path,
		Volume:     obj.Volume,
		Seq:        obj.Seq,
		Offset:     off,
		Want:       obj.Sum,
		CauseEvent: cause,
		Reason:     why,
	}
}

// verifyDelivered checks the digest one recall pass delivered against
// the catalog and decides what happens next:
//
//	(false, nil)  clean (or an untracked object with no digest):
//	              deliver the bytes.
//	(true, nil)   mismatch, but curable: an in-flight flip warrants a
//	              plain re-read; on-media damage was just repaired from
//	              the copy pool, so re-read from the fresh location.
//	(false, err)  mismatch with no cure: err is a *IntegrityError.
//
// final caps pathological schedules (every retransmission corrupted):
// when set, a mismatch is terminal even if a cure exists.
func (s *Server) verifyDelivered(client string, obj *Object, vol *tape.Cartridge,
	delivered, taintCause uint64, tainted bool, headCause uint64,
	final bool, phase string) (retry bool, err error) {
	if obj.Sum == 0 || delivered == obj.Sum {
		return false, nil
	}
	cause := s.corruptionCause(vol, obj.Seq, taintCause, tainted, headCause)
	s.noteDetection(obj, phase, cause)
	if _, onMedia := vol.CorruptionFor(obj.Seq); !onMedia {
		// The media is fine — the stream was flipped in flight (link
		// taint or a flaky drive head). A re-read normally delivers
		// clean bytes.
		if final {
			return false, s.unrepairable(obj, vol, cause, "re-read budget exhausted")
		}
		return true, nil
	}
	// The damage is on the media itself: quarantine the volume so no new
	// data lands on it, then re-stage the object from its copy-pool
	// duplicate onto a healthy volume.
	s.Quarantine(vol.Label)
	if rerr := s.repairObject(client, obj.ID); rerr != nil {
		return false, s.unrepairable(obj, vol, cause, rerr.Error())
	}
	if final {
		return false, s.unrepairable(obj, vol, cause, "re-read budget exhausted")
	}
	return true, nil
}
