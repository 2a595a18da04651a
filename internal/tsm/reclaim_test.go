package tsm

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/tape"
)

func newLibEnv(drives, carts int) (*simtime.Clock, *tape.Library) {
	clock := simtime.NewClock()
	return clock, tape.NewLibrary(clock, drives, carts, 1, tape.LTO4())
}

func TestReclaimSkipsLiveVolumes(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		for i := 0; i < 5; i++ {
			if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9, Group: "g"}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.srv.ReclaimThreshold("mover", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.VolumesReclaimed != 0 {
			t.Errorf("reclaimed %d fully-live volumes", res.VolumesReclaimed)
		}
		if used := e.lib.Cartridges()[0].Used(); used == 0 {
			t.Error("no volume holds data: nothing was there to examine")
		}
	})
}

func TestReclaimFullyDeadVolume(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		var ids []uint64
		for i := 0; i < 4; i++ {
			obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9, Group: "g"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, obj.ID)
		}
		vol := mustGet(t, e.srv, ids[0]).Volume
		for _, id := range ids {
			e.srv.Delete(id)
		}
		if f := e.srv.liveFraction(vol); f != 0 {
			t.Fatalf("liveFraction = %v, want 0", f)
		}
		res, err := e.srv.ReclaimThreshold("mover", 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.VolumesReclaimed != 1 || res.ObjectsMoved != 0 {
			t.Errorf("res = %+v", res)
		}
		if res.BytesFreed != 4e9 {
			t.Errorf("BytesFreed = %d, want 4e9", res.BytesFreed)
		}
		cart, _ := e.lib.Cartridge(vol)
		if cart.Used() != 0 {
			t.Errorf("volume still holds %d bytes", cart.Used())
		}
	})
}

func TestReclaimMovesSurvivors(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		var ids []uint64
		for i := 0; i < 4; i++ {
			obj, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9, Group: "g"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, obj.ID)
		}
		srcVol := mustGet(t, e.srv, ids[0]).Volume
		// Kill 3 of 4: volume is 25% live, below a 0.5 threshold.
		for _, id := range ids[:3] {
			e.srv.Delete(id)
		}
		res, err := e.srv.ReclaimThreshold("mover", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.VolumesReclaimed != 1 || res.ObjectsMoved != 1 {
			t.Fatalf("res = %+v", res)
		}
		survivor := mustGet(t, e.srv, ids[3])
		if survivor.Volume == srcVol {
			t.Error("survivor still on the reclaimed volume")
		}
		// The survivor remains recallable after the move.
		if _, err := e.srv.Recall(RecallRequest{Client: "c", ObjectID: ids[3]}); err != nil {
			t.Errorf("recall after reclaim: %v", err)
		}
		src, _ := e.lib.Cartridge(srcVol)
		if src.Used() != 0 {
			t.Errorf("source volume still holds %d bytes", src.Used())
		}
	})
}

func TestReclaimReturnsVolumeToScratchPool(t *testing.T) {
	cfg := DefaultConfig()
	clock, lib := newLibEnv(1, 2) // only two cartridges
	srv := NewServer(clock, cfg, lib)
	clock.Go(func() {
		// Fill volume 1 with dead data.
		obj, err := srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 700e9, Group: "g"})
		if err != nil {
			t.Fatal(err)
		}
		srv.Delete(obj.ID)
		// Volume 2 takes the next big object.
		if _, err := srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 700e9, Group: "g2"}); err != nil {
			t.Fatal(err)
		}
		// Without reclamation a third 700 GB store has nowhere to go.
		if _, err := srv.Store(StoreRequest{Client: "c", Path: "/c", Bytes: 700e9, Group: "g3"}); err == nil {
			t.Fatal("store should fail with both volumes full")
		}
		if _, err := srv.ReclaimThreshold("mover", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Store(StoreRequest{Client: "c", Path: "/c", Bytes: 700e9, Group: "g3"}); err != nil {
			t.Errorf("store after reclaim: %v", err)
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, s *Server, id uint64) Object {
	t.Helper()
	o, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestReclaimSkipsCorruptSurvivorsAndKeepsSource(t *testing.T) {
	// Satellite of the integrity work: reclamation re-verifies every
	// survivor it moves. A corrupt survivor must never be consolidated
	// onto a healthy volume, and the source — now the only copy of
	// those bytes — must not be erased; it is quarantined instead.
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		var ids []uint64
		for i := 0; i < 4; i++ {
			obj, err := e.srv.Store(StoreRequest{
				Client: "c", Path: "/f", Bytes: 1e9, Group: "g", Sum: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, obj.ID)
		}
		srcVol := mustGet(t, e.srv, ids[0]).Volume
		// Kill 2 of 4 (50% live, at the threshold) and rot one of the
		// two survivors on the media.
		e.srv.Delete(ids[0])
		e.srv.Delete(ids[1])
		bad := mustGet(t, e.srv, ids[2])
		src, _ := e.lib.Cartridge(srcVol)
		src.CorruptFile(bad.Seq, 77)

		res, err := e.srv.ReclaimThreshold("mover", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if detected := e.count("tsm_integrity_detected_total"); detected != 1 || res.ObjectsMoved != 1 {
			t.Fatalf("res = %+v, %d detected; want 1 moved and 1 detected", res, detected)
		}
		if res.VolumesReclaimed != 0 || res.BytesFreed != 0 {
			t.Errorf("source counted as reclaimed: %+v", res)
		}
		if src.Used() == 0 {
			t.Fatal("source volume was erased with a corrupt survivor aboard")
		}
		if !e.srv.quarantined(srcVol) {
			t.Error("source volume not quarantined")
		}
		// The good survivor moved; the corrupt one stayed put.
		if got := mustGet(t, e.srv, ids[3]); got.Volume == srcVol {
			t.Error("clean survivor not consolidated")
		}
		if got := mustGet(t, e.srv, ids[2]); got.Volume != srcVol {
			t.Error("corrupt survivor was moved off the damaged volume")
		}
		// A second pass must not erase it either.
		res, err = e.srv.ReclaimThreshold("mover", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.VolumesReclaimed != 0 || src.Used() == 0 {
			t.Errorf("second pass erased the quarantined source: %+v", res)
		}
		if n := e.count("tsm_integrity_detected_total"); n < 1 {
			t.Errorf("no detection recorded: %d", n)
		}
	})
}

// liveFraction reports a volume's live-bytes / used-bytes (1 for an
// empty volume).
func (s *Server) liveFraction(label string) float64 {
	vol, err := s.lib.Cartridge(label)
	if err != nil || vol.Used() == 0 {
		return 1
	}
	var live int64
	for _, id := range s.order {
		o := s.db.get(id)
		if !o.Deleted && o.Volume == label {
			live += o.Bytes
		}
	}
	return float64(live) / float64(vol.Used())
}
