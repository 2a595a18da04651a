package tsm

import (
	"errors"
	"testing"

	"repro/internal/tape"
)

// storeSum stores one digest-tracked object and returns it.
func (e *env) storeSum(t *testing.T, client, path string, bytes int64, sum uint64) Object {
	t.Helper()
	obj, err := e.srv.Store(StoreRequest{Client: client, Path: path, Bytes: bytes, Sum: sum})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestRecallVerifiesCleanObject(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		got, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID})
		if err != nil {
			t.Fatal(err)
		}
		if got.Sum != 0xA1 {
			t.Errorf("Sum = %#x, want 0xA1", got.Sum)
		}
		if n := e.count("tsm_integrity_detected_total"); n != 0 {
			t.Errorf("detected %d mismatches on a clean recall", n)
		}
	})
}

func TestRecallRepairsMediaRotFromCopyPool(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("copy", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		if _, err := e.srv.BackupPool("mover"); err != nil {
			t.Fatal(err)
		}
		vol, _ := e.lib.Cartridge(obj.Volume)
		vol.CorruptFile(obj.Seq, 77)

		got, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID})
		if err != nil {
			t.Fatal(err)
		}
		if got.Volume == obj.Volume {
			t.Errorf("repair left object on the damaged volume %s", obj.Volume)
		}
		if !e.srv.quarantined(obj.Volume) {
			t.Errorf("damaged volume %s not quarantined", obj.Volume)
		}
		det := e.count("tsm_integrity_detected_total")
		rep := e.count("tsm_integrity_repaired_total")
		unrep := e.count("tsm_integrity_unrepairable_total")
		if det != 1 || rep != 1 || unrep != 0 {
			t.Errorf("detected/repaired/unrepairable = %d/%d/%d, want 1/1/0", det, rep, unrep)
		}
	})
}

func TestRecallWithoutCopyReturnsIntegrityError(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		vol, _ := e.lib.Cartridge(obj.Volume)
		vol.CorruptFile(obj.Seq, 77)

		_, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID})
		var ie *integrityError
		if !errors.As(err, &ie) {
			t.Fatalf("err = %v, want *IntegrityError", err)
		}
		if ie.ObjectID != obj.ID || ie.Volume != obj.Volume || ie.CauseEvent != 77 {
			t.Errorf("IntegrityError = %+v", ie)
		}
		if ie.Path != "/a" || ie.Want != 0xA1 {
			t.Errorf("IntegrityError detail = %+v", ie)
		}
		det := e.count("tsm_integrity_detected_total")
		unrep := e.count("tsm_integrity_unrepairable_total")
		if det != 1 || unrep != 1 {
			t.Errorf("detected/unrepairable = %d/%d, want 1/1", det, unrep)
		}
	})
}

func TestRecallCuresTransientHeadFlipByReread(t *testing.T) {
	// A drive-head flip mangles the delivered bytes but not the medium:
	// the verifying recall detects it and a plain re-read succeeds. No
	// quarantine, no repair.
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		e.lib.Drive(0).CorruptNextOps(1, 55)
		if _, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID}); err != nil {
			t.Fatal(err)
		}
		if e.srv.quarantined(obj.Volume) {
			t.Error("transient flip quarantined the volume")
		}
		det := e.count("tsm_integrity_detected_total")
		rep := e.count("tsm_integrity_repaired_total")
		if det != 1 || rep != 0 {
			t.Errorf("detected/repaired = %d/%d, want 1/0", det, rep)
		}
	})
}

func TestRecallBatchRoutesBadObjectsThroughRepair(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("copy", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		objs := []Object{
			e.storeSum(t, "fta01", "/a", 1e9, 0xA1),
			e.storeSum(t, "fta01", "/b", 1e9, 0xB2),
			e.storeSum(t, "fta01", "/c", 1e9, 0xC3),
		}
		if objs[0].Volume != objs[1].Volume || objs[1].Volume != objs[2].Volume {
			t.Fatalf("objects scattered: %s %s %s", objs[0].Volume, objs[1].Volume, objs[2].Volume)
		}
		if _, err := e.srv.BackupPool("mover"); err != nil {
			t.Fatal(err)
		}
		vol, _ := e.lib.Cartridge(objs[1].Volume)
		vol.CorruptFile(objs[1].Seq, 77)

		got, err := e.srv.RecallBatch(RecallBatchRequest{
			Client: "fta01", Volume: objs[1].Volume,
			ObjectIDs: []uint64{objs[0].ID, objs[1].ID, objs[2].ID},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("restored %d of 3", len(got))
		}
		det := e.count("tsm_integrity_detected_total")
		rep := e.count("tsm_integrity_repaired_total")
		if det < 1 || rep != 1 {
			t.Errorf("detected/repaired = %d/%d, want >=1/1", det, rep)
		}
	})
}

func TestBackupPoolSkipsAlreadyCorruptPrimary(t *testing.T) {
	// Duplicating damage would poison the repair source: the backup
	// pass verifies what it reads and skips (but reports) bad objects.
	e := newEnv(1, DefaultConfig())
	e.srv.AddCopyPool("copy", 1, tape.LTO4().Capacity)
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		vol, _ := e.lib.Cartridge(obj.Volume)
		vol.CorruptFile(obj.Seq, 77)
		res, err := e.srv.BackupPool("mover")
		if err != nil {
			t.Fatal(err)
		}
		if res.Objects != 0 || res.Skipped != 1 {
			t.Errorf("BackupResult = %+v", res)
		}
		if e.srv.hasCopy(obj.ID) {
			t.Error("corrupt primary was duplicated")
		}
	})
}

func TestBackupPoolFailsOnCopyWriteError(t *testing.T) {
	// A failed write to the copy pool must fail the pass: dropping it
	// would report success for an object left without its duplicate.
	e := newEnv(2, DefaultConfig())
	labels := e.srv.AddCopyPool("copy", 1, tape.LTO4().Capacity)
	e.run(t, func() {
		e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		if _, err := e.srv.BackupPool("mover"); err != nil {
			t.Fatal(err)
		}
		obj := e.storeSum(t, "fta01", "/b", 1e9, 0xB2)
		cvol, _ := e.lib.Cartridge(labels[0])
		d := e.lib.MountedIn(cvol)
		if d == nil {
			t.Fatalf("copy volume %s not mounted after the first pass", labels[0])
		}
		d.FailNextOps(1)
		res, err := e.srv.BackupPool("mover")
		if !errors.Is(err, tape.ErrIO) {
			t.Fatalf("BackupPool = %+v, %v; want the copy write's ErrIO", res, err)
		}
		if res.Objects != 0 || e.srv.hasCopy(obj.ID) {
			t.Errorf("failed copy write recorded a duplicate: %+v", res)
		}
	})
}

func TestScrubDetectsQuarantinesAndRepairs(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("copy", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		a := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		b := e.storeSum(t, "fta01", "/b", 1e9, 0xB2)
		if _, err := e.srv.BackupPool("mover"); err != nil {
			t.Fatal(err)
		}
		vol, _ := e.lib.Cartridge(a.Volume)
		vol.CorruptFile(a.Seq, 77)

		sc := NewScrubber(e.srv, ScrubConfig{Client: "scrub"})
		rep := sc.ScrubOnce()
		if rep.Detected != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
			t.Errorf("report = %+v", rep)
		}
		if rep.ObjectsVerified < 2 {
			t.Errorf("verified %d objects, want >= 2", rep.ObjectsVerified)
		}
		if !e.srv.quarantined(a.Volume) {
			t.Error("damaged volume not quarantined")
		}
		// Both objects now recall cleanly.
		for _, id := range []uint64{a.ID, b.ID} {
			if _, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: id}); err != nil {
				t.Errorf("recall %d after scrub: %v", id, err)
			}
		}
		if n := e.count("tsm_integrity_repaired_total"); n != 1 {
			t.Errorf("repaired = %d, want 1", n)
		}
	})
}

func TestScrubFallsBackToSourceRepair(t *testing.T) {
	// No copy pool at all: the scrubber's RepairFromSource hook stands
	// in for a premigrated file still resident on disk.
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		vol, _ := e.lib.Cartridge(obj.Volume)
		vol.CorruptFile(obj.Seq, 77)

		var asked []uint64
		sc := NewScrubber(e.srv, ScrubConfig{
			Client: "scrub",
			RepairFromSource: func(o Object) bool {
				asked = append(asked, o.ID)
				return true
			},
		})
		rep := sc.ScrubOnce()
		if rep.Detected != 1 || rep.Repaired != 1 {
			t.Errorf("report = %+v", rep)
		}
		if len(asked) != 1 || asked[0] != obj.ID {
			t.Errorf("RepairFromSource asked for %v", asked)
		}
		if _, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID}); err != nil {
			t.Errorf("recall after source repair: %v", err)
		}
	})
}

func TestScrubReportsUnrepairable(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		vol, _ := e.lib.Cartridge(obj.Volume)
		vol.CorruptFile(obj.Seq, 77)
		sc := NewScrubber(e.srv, ScrubConfig{Client: "scrub"})
		rep := sc.ScrubOnce()
		if rep.Detected != 1 || rep.Repaired != 0 || rep.Unrepairable != 1 {
			t.Errorf("report = %+v", rep)
		}
		if len(rep.Failures) == 0 {
			t.Error("no failure recorded for the unrepairable object")
		}
		if got := e.srv.QuarantinedVolumes(); len(got) != 1 || got[0] != obj.Volume {
			t.Errorf("quarantined = %v", got)
		}
	})
}

func TestQuarantinedVolumeNeverAWriteTarget(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj := e.storeSum(t, "fta01", "/a", 1e9, 0xA1)
		e.srv.Quarantine(obj.Volume)
		// Same client, so drive affinity would otherwise reuse the
		// mounted (quarantined) volume.
		next := e.storeSum(t, "fta01", "/b", 1e9, 0xB2)
		if next.Volume == obj.Volume {
			t.Errorf("store landed on quarantined volume %s", obj.Volume)
		}
	})
}

func TestCopyPoolVolumesNeverPrimaryTargets(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	labels := e.srv.AddCopyPool("copy", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		for i := 0; i < 4; i++ {
			obj := e.storeSum(t, "fta01", "/f", 1e9, uint64(i+1))
			for _, cl := range labels {
				if obj.Volume == cl {
					t.Fatalf("primary store landed on copy volume %s", cl)
				}
			}
		}
	})
}

// hasCopy reports whether an object has a copy-pool duplicate.
func (s *Server) hasCopy(id uint64) bool {
	_, ok := s.copies[id]
	return ok
}
