package tsm

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// ScrubConfig tunes the background media scrubber.
type ScrubConfig struct {
	// Client owns the scrubber's drive sessions.
	Client string
	// Interval is the gap between full passes when Run drives the
	// scrubber on an ILM-style schedule.
	Interval time.Duration
	// RepairFromSource, when set, is the fallback repair for objects
	// with no (good) copy-pool duplicate: return true if the object was
	// re-staged from an outside source still holding correct bytes (a
	// premigrated file resident on disk). The scrubber then rewrites
	// the primary copy from that source.
	RepairFromSource func(Object) bool
}

// ScrubReport summarizes one full scrub pass.
type ScrubReport struct {
	Pass            int           `json:"pass"`
	VolumesScanned  int           `json:"volumes_scanned"`
	ObjectsVerified int           `json:"objects_verified"`
	BytesRead       int64         `json:"bytes_read"`
	Detected        int           `json:"detected"`
	Repaired        int           `json:"repaired"`
	Unrepairable    int           `json:"unrepairable"`
	Quarantined     []string      `json:"quarantined,omitempty"`
	Failures        []string      `json:"failures,omitempty"`
	Elapsed         time.Duration `json:"elapsed_ns"`
}

// Scrubber walks primary volumes on a schedule, re-reads every
// digest-tracked live object, verifies it against the catalog, and
// repairs what it can: quarantine the damaged volume, re-stage from
// the copy pool, fall back to an outside source, and report the rest.
// It is the proactive half of the integrity story — recalls verify
// what users happen to touch; the scrubber finds bit rot before a
// user does.
type Scrubber struct {
	s       *Server
	cfg     ScrubConfig
	pass    int
	reports []ScrubReport
}

// NewScrubber creates a scrubber for s.
func NewScrubber(s *Server, cfg ScrubConfig) *Scrubber {
	if cfg.Client == "" {
		cfg.Client = "scrubber"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 24 * time.Hour
	}
	return &Scrubber{s: s, cfg: cfg}
}

// Reports returns every pass report so far.
func (sc *Scrubber) Reports() []ScrubReport {
	return append([]ScrubReport(nil), sc.reports...)
}

// Interval reports the gap between full passes.
func (sc *Scrubber) Interval() time.Duration { return sc.cfg.Interval }

// SetInterval retunes the gap between passes mid-run — the operator
// knob behind the obs /ops/scrub-interval endpoint: after quarantining
// a suspect volume an operator tightens the scrub cadence to sweep the
// rest of the pool sooner. A pass already sleeping keeps its old wake
// time; the new interval applies from the next pass. Non-positive
// intervals are ignored.
func (sc *Scrubber) SetInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	sc.cfg.Interval = d
}

// admit passes one volume scan through the scheduler as the "system"
// tenant's scavenger work: a scrub pass must never crowd out user
// recalls.
func (sc *Scrubber) admit(volBytes int64) *sched.Grant {
	return sc.s.sch.Station(sched.StationScrub).Admit(sched.Item{
		QoS: sched.QoS{Tenant: "system", Class: sched.Scavenger}, Units: volBytes,
	})
}

// ScrubOnce performs one full pass over the primary volumes. Each
// volume is scanned in a single drive session (sequential re-read of
// its live, digest-tracked objects); the drive is released before any
// repair starts, so a one-drive library can still repair — the repair
// write needs that drive.
func (sc *Scrubber) ScrubOnce() ScrubReport {
	s := sc.s
	sc.pass++
	rep := ScrubReport{Pass: sc.pass}
	start := s.clock.Now()
	sp := s.tel.StartSpan("tsm.scrub", "pass", fmt.Sprint(sc.pass))
	s.reapDownDrives()

	// Work list per volume, in catalog order (ascending Seq follows
	// from store order within a volume).
	byVol := make(map[string][]*Object)
	var volOrder []string
	for _, id := range s.order {
		o := s.db.get(id)
		if o.Deleted || o.Sum == 0 || s.copyPool[o.Volume] {
			continue
		}
		if _, seen := byVol[o.Volume]; !seen {
			volOrder = append(volOrder, o.Volume)
		}
		byVol[o.Volume] = append(byVol[o.Volume], o)
	}

	var bad []*Object
	badCause := make(map[uint64]uint64)
	for _, label := range volOrder {
		vol, err := s.lib.Cartridge(label)
		if err != nil {
			rep.Failures = append(rep.Failures, err.Error())
			continue
		}
		rep.VolumesScanned++
		var volBytes int64
		for _, obj := range byVol[label] {
			volBytes += obj.Bytes
		}
		grant := sc.admit(volBytes)
		d, err := s.volumeSession(vol, sc.cfg.Client, sp)
		if err != nil {
			grant.Done()
			rep.Failures = append(rep.Failures, err.Error())
			continue
		}
		damaged := false
		for _, obj := range byVol[label] {
			_, delivered, err := d.ReadSeqSum(obj.Seq)
			if err != nil {
				rep.Failures = append(rep.Failures, err.Error())
				break
			}
			rep.ObjectsVerified++
			rep.BytesRead += obj.Bytes
			if delivered == obj.Sum {
				continue
			}
			cause := s.corruptionCause(vol, obj.Seq, 0, false, d.CorruptCause())
			s.noteDetection(obj, "scrub", cause)
			rep.Detected++
			if _, onMedia := vol.CorruptionFor(obj.Seq); !onMedia {
				// Transient head flip: a re-read settles it.
				if _, again, err := d.ReadSeqSum(obj.Seq); err == nil && again == obj.Sum {
					continue
				}
			}
			damaged = true
			bad = append(bad, obj)
			badCause[obj.ID] = cause
		}
		s.releaseDrive(d)
		grant.Done()
		if damaged && !s.quarantined(label) {
			s.Quarantine(label)
		}
	}

	// Repair pass, after every scan session released its drive.
	for _, obj := range bad {
		if err := s.repairObject(sc.cfg.Client, obj.ID); err == nil {
			rep.Repaired++
			continue
		}
		if sc.cfg.RepairFromSource != nil && sc.cfg.RepairFromSource(*obj) {
			if err := s.rewriteObject(sc.cfg.Client, obj.ID); err == nil {
				rep.Repaired++
				continue
			}
		}
		vol, err := s.lib.Cartridge(obj.Volume)
		if err == nil {
			rep.Failures = append(rep.Failures,
				s.unrepairable(obj, vol, badCause[obj.ID], "no good copy").Error())
		}
		rep.Unrepairable++
	}

	rep.Quarantined = s.QuarantinedVolumes()
	rep.Elapsed = s.clock.Now() - start
	sp.SetAttr("detected", fmt.Sprint(rep.Detected))
	sp.SetAttr("repaired", fmt.Sprint(rep.Repaired))
	if rep.Unrepairable > 0 {
		sp.SetAttr("unrepairable", fmt.Sprint(rep.Unrepairable))
	}
	sp.End()
	sc.reports = append(sc.reports, rep)
	return rep
}
