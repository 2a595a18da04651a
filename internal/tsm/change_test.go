package tsm

import (
	"testing"

	"repro/internal/tape"
)

// OnChange fires once per committed store, once per repair move, once
// per reclamation move and once per delete, each time carrying the
// object's committed catalog entry.
func TestOnChangeFiresPerStoreMoveAndDelete(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("copy", 2, tape.LTO4().Capacity)
	var changes []Object
	e.srv.OnChange(func(o Object) { changes = append(changes, o) })
	// phase runs fn and checks it fired want events, each matching the
	// catalog as it stands afterwards (a delete matches by ID alone).
	phase := func(name string, want int, fn func()) []Object {
		t.Helper()
		from := len(changes)
		fn()
		got := changes[from:]
		if len(got) != want {
			t.Errorf("%s: OnChange fired %d times, want %d", name, len(got), want)
		}
		for _, o := range got {
			cur := mustGet(t, e.srv, o.ID)
			if o != cur {
				t.Errorf("%s: hook saw %+v, catalog holds %+v", name, o, cur)
			}
		}
		return got
	}
	e.run(t, func() {
		var ids []uint64
		phase("store", 4, func() {
			for i := 0; i < 4; i++ {
				ids = append(ids, e.storeSum(t, "c", "/f", 1e9, uint64(0xA0+i)).ID)
			}
		})
		if _, err := e.srv.BackupPool("mover"); err != nil {
			t.Fatal(err)
		}
		phase("copy-pool backup", 0, func() {})
		before := mustGet(t, e.srv, ids[0])
		moved := phase("repair from copy", 1, func() {
			if err := e.srv.repairObject("mover", ids[0]); err != nil {
				t.Fatal(err)
			}
		})
		if len(moved) == 1 && moved[0].Volume == before.Volume && moved[0].Seq == before.Seq {
			t.Errorf("repair event %+v names the old location", moved[0])
		}
		phase("repair from source", 1, func() {
			if err := e.srv.rewriteObject("mover", ids[1]); err != nil {
				t.Fatal(err)
			}
		})
		deleted := phase("delete", 1, func() {
			if err := e.srv.Delete(ids[2]); err != nil {
				t.Fatal(err)
			}
		})
		if len(deleted) == 1 && !deleted[0].Deleted {
			t.Errorf("delete event %+v lacks Deleted", deleted[0])
		}
		// The two repairs landed on a fresh volume, leaving the first
		// with one live file of four: a 0.5 threshold reclaims it and
		// moves that survivor.
		phase("reclaim", 1, func() {
			res, err := e.srv.ReclaimThreshold("mover", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if res.VolumesReclaimed != 1 || res.ObjectsMoved != 1 {
				t.Errorf("reclaim = %+v, want one volume and one object moved", res)
			}
		})
		if n := e.count("tsm_integrity_repaired_total"); n != 2 {
			t.Errorf("tsm_integrity_repaired_total = %d, want 2 (repairs only, not reclamation)", n)
		}
	})
}
