package tsm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/tape"
)

func TestStoreRetriesTransientDriveError(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		e.lib.Drive(0).FailNextOps(1)
		e.lib.Drive(1).FailNextOps(0)
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err != nil {
			t.Fatalf("store with one transient fault failed: %v", err)
		}
		if obj.ID == 0 {
			t.Error("no object recorded")
		}
		if n := e.count("tsm_retries_total"); n != 1 {
			t.Errorf("Retries = %d, want 1", n)
		}
		if e.lib.TotalStats().IOErrors != 1 {
			t.Errorf("IOErrors = %d, want 1", e.lib.TotalStats().IOErrors)
		}
		// Nothing half-written: the tape holds exactly the one file.
		var used int64
		for _, c := range e.lib.Cartridges() {
			used += c.Used()
		}
		if used != obj.Bytes {
			t.Errorf("tape bytes = %d, want %d (failed attempt left nothing)", used, obj.Bytes)
		}
	})
}

func TestStorePersistentFaultSurfaces(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		e.lib.Drive(0).FailNextOps(10) // more faults than retries
		_, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if !errors.Is(err, tape.ErrIO) {
			t.Errorf("err = %v, want ErrIO", err)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("failed store recorded an object")
		}
	})
}

func TestRecallRetriesTransientDriveError(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		e.lib.Drive(0).FailNextOps(1)
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err != nil {
			t.Fatalf("recall with one transient fault failed: %v", err)
		}
		if n := e.count("tsm_retries_total"); n != 1 {
			t.Errorf("Retries = %d", n)
		}
	})
}

func TestRetryCostsVirtualTime(t *testing.T) {
	// A transient fault is not free: the faulting transaction grinds
	// before giving up, so the store with a fault takes longer.
	elapsed := func(fail bool) (d simDuration) {
		e := newEnv(2, DefaultConfig())
		e.clock.Go(func() {
			if fail {
				e.lib.Drive(0).FailNextOps(1)
			}
			if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9}); err != nil {
				t.Error(err)
			}
		})
		end, err := e.clock.Run()
		if err != nil {
			t.Fatal(err)
		}
		return simDuration(end)
	}
	clean := elapsed(false)
	faulty := elapsed(true)
	if faulty <= clean {
		t.Errorf("faulty store (%d) should take longer than clean (%d)", faulty, clean)
	}
}

type simDuration int64

func TestStoreFailsOverDeadDrive(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		// Seed an affinity to drive 0, then kill it: the next store must
		// land on the survivor.
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		dead := e.lib.MountedIn(mustCart(t, e.lib, obj.Volume))
		if dead == nil {
			t.Fatal("first store left no mounted volume")
		}
		dead.SetDown(true)
		obj2, err := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1e9})
		if err != nil {
			t.Fatalf("store after drive death failed: %v", err)
		}
		if d := e.lib.MountedIn(mustCart(t, e.lib, obj2.Volume)); d == dead {
			t.Error("store landed on the dead drive")
		}
		if e.srv.NumObjects() != 2 {
			t.Errorf("NumObjects = %d, want 2", e.srv.NumObjects())
		}
	})
}

func TestRecallForceEjectsFromDeadDrive(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		// The volume sits mounted in the drive that wrote it; kill that
		// drive so the recall must robot-eject and remount elsewhere.
		vol := mustCart(t, e.lib, obj.Volume)
		holder := e.lib.MountedIn(vol)
		if holder == nil {
			t.Fatal("volume not mounted after store")
		}
		holder.SetDown(true)
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err != nil {
			t.Fatalf("recall from dead drive's volume failed: %v", err)
		}
		now := e.lib.MountedIn(vol)
		if now == nil || now == holder {
			t.Errorf("volume should have moved to a survivor, in %v", now)
		}
	})
}

func TestAllDrivesDeadSurfacesErrNoDrives(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		for _, d := range e.lib.Drives() {
			d.SetDown(true)
		}
		_, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e9})
		if !errors.Is(err, errNoDrives) {
			t.Errorf("store with all drives dead: %v, want ErrNoDrives", err)
		}
		// Repair one drive: service resumes.
		e.lib.Drive(1).SetDown(false)
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1e9}); err != nil {
			t.Errorf("store after repair failed: %v", err)
		}
	})
}

func TestDrivePoolShrinksWithDeadDrives(t *testing.T) {
	e := newEnv(4, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e6}); err != nil {
			t.Fatal(err)
		}
		e.lib.Drive(0).SetDown(true)
		e.lib.Drive(1).SetDown(true)
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1e6}); err != nil {
			t.Fatal(err)
		}
		if got := e.srv.drvPool.Cap(); got != 2 {
			t.Errorf("drive pool cap = %d, want 2 after two deaths", got)
		}
		e.lib.Drive(0).SetDown(false)
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/c", Bytes: 1e6}); err != nil {
			t.Fatal(err)
		}
		if got := e.srv.drvPool.Cap(); got != 3 {
			t.Errorf("drive pool cap = %d, want 3 after repair", got)
		}
	})
}

func TestStoreSkipsReadOnlyMedia(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		// The written volume goes bad (read-only): the next store must
		// pick a fresh scratch volume, and the old data still recalls.
		mustCart(t, e.lib, obj.Volume).SetReadOnly(true)
		obj2, err := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1e9})
		if err != nil {
			t.Fatalf("store after media freeze failed: %v", err)
		}
		if obj2.Volume == obj.Volume {
			t.Error("store landed on read-only volume")
		}
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: obj.ID}); err != nil {
			t.Errorf("recall from read-only volume failed: %v", err)
		}
	})
}

func TestServerOutageBlocksThenResumes(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.clock.Go(func() {
		start := e.clock.Now()
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e6}); err != nil {
			t.Error(err)
		}
		if e.clock.Now()-start < 10*time.Minute {
			t.Errorf("store finished in %v, should have blocked through the outage", e.clock.Now()-start)
		}
	})
	e.srv.SetDown(true)
	e.clock.At(10*time.Minute, func() { e.srv.SetDown(false) })
	if _, err := e.clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffChargesTimeBetweenFailovers(t *testing.T) {
	// With backoff configured, a store that fails twice costs at least
	// the first two backoff delays of virtual time beyond the clean run.
	elapsed := func(faults int) time.Duration {
		e := newEnv(3, DefaultConfig())
		var end time.Duration
		e.clock.Go(func() {
			for i := 0; i < faults && i < 3; i++ {
				e.lib.Drive(i).FailNextOps(1)
			}
			if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9}); err != nil {
				t.Error(err)
			}
			end = time.Duration(e.clock.Now())
		})
		if _, err := e.clock.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	clean := elapsed(0)
	faulty := elapsed(2)
	wantExtra := DefaultConfig().Retry.Base // at least the first delay
	if faulty-clean < wantExtra {
		t.Errorf("two failovers added %v, want at least %v of backoff", faulty-clean, wantExtra)
	}
}

func mustCart(t *testing.T, lib *tape.Library, label string) *tape.Cartridge {
	t.Helper()
	c, err := lib.Cartridge(label)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
