package hsm

import (
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/vfs"
)

func TestLocateResolvesAndReportsMissing(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 3, 1e9)
		if _, err := e.eng.Migrate(files, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		locs, missing := e.eng.Locate([]string{files[0].Path, files[2].Path, "/ghost"}, []vfs.FileID{files[0].ID, files[2].ID, 0})
		if len(locs) != 2 {
			t.Errorf("locs = %d, want 2", len(locs))
		}
		for _, l := range locs {
			if l.Volume == "" || l.Seq == 0 || l.Bytes != 1e9 {
				t.Errorf("loc = %+v", l)
			}
		}
		if len(missing) != 1 || missing[0] != "/ghost" {
			t.Errorf("missing = %v", missing)
		}
	})
}

func TestLocateAggregateMembers(t *testing.T) {
	e := newEnv(t, 2, Config{AggregateThreshold: 100e6, AggregateTarget: 1e9})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 10, 8e6)
		if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
			t.Fatal(err)
		}
		locs, missing := e.eng.Locate([]string{files[0].Path, files[5].Path}, []vfs.FileID{files[0].ID, files[5].ID})
		if len(missing) != 0 {
			t.Errorf("missing = %v", missing)
		}
		if len(locs) != 2 {
			t.Fatalf("locs = %d", len(locs))
		}
		for _, l := range locs {
			if l.Volume == "" {
				t.Errorf("aggregate member %s has no volume", l.Path)
			}
		}
	})
}

func TestRecallPinnedUnknownNode(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		if err := e.eng.RecallPinned("not-a-node", nil, nil, sched.QoS{}); err == nil {
			t.Error("unknown node accepted")
		}
	})
}

func TestRecallPinnedSkipsResident(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 2, 1e6)
		// Nothing migrated: pinned recall is a no-op.
		if err := e.eng.RecallPinned("fta01", []string{files[0].Path, files[1].Path}, []vfs.FileID{files[0].ID, files[1].ID}, sched.QoS{}); err != nil {
			t.Fatal(err)
		}
		if n := e.count("hsm_recalled_files_total"); n != 0 {
			t.Errorf("recalled %d resident files", n)
		}
	})
}

func TestMigrateNoNodes(t *testing.T) {
	e := newEnv(t, 2, Config{})
	e.run(t, func() {
		eng := New(e.clock, e.fs, e.srv, e.shadow, nil, Config{})
		if _, err := eng.Migrate(nil, MigrateOptions{}); err != errNoNodes {
			t.Errorf("err = %v, want ErrNoNodes", err)
		}
		if _, err := eng.Recall(nil, RecallNaive); err != errNoNodes {
			t.Errorf("recall err = %v, want ErrNoNodes", err)
		}
	})
}

func TestRouteRecallsOrderedBalancesVolumeBytes(t *testing.T) {
	e := newEnv(t, 2, Config{})
	items := []recallItem{
		{object: 1, volume: "A", seq: 1, bytes: 100},
		{object: 2, volume: "A", seq: 2, bytes: 100},
		{object: 3, volume: "B", seq: 1, bytes: 10},
		{object: 4, volume: "C", seq: 1, bytes: 10},
	}
	bins := e.eng.routeRecalls(items, RecallOrdered, 2)
	// Volume A (200 bytes) should sit alone in one bin; B and C (20
	// total) pack into others. No volume may split across bins.
	volBin := make(map[string]int)
	for i, bin := range bins {
		for _, it := range bin {
			if prev, ok := volBin[it.volume]; ok && prev != i {
				t.Fatalf("volume %s split across bins %d and %d", it.volume, prev, i)
			}
			volBin[it.volume] = i
		}
	}
	if volBin["B"] == volBin["A"] || volBin["C"] == volBin["A"] {
		t.Errorf("small volumes packed with the big one: %v", volBin)
	}
	// Within a volume, items are seq-ordered.
	for _, bin := range bins {
		lastSeq := map[string]int{}
		for _, it := range bin {
			if it.seq < lastSeq[it.volume] {
				t.Errorf("volume %s out of order", it.volume)
			}
			lastSeq[it.volume] = it.seq
		}
	}
}

func TestAggregateRecallRestoresAllMembersAtOnce(t *testing.T) {
	e := newEnv(t, 2, Config{AggregateThreshold: 100e6, AggregateTarget: 10e9})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 20, 8e6)
		if _, err := e.eng.Migrate(files, MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		// Recall a single member: the whole bundle comes back, so all
		// co-bundled members become resident too (a free side effect of
		// aggregate granularity).
		res, err := e.eng.Recall([]string{files[0].Path}, RecallOrdered)
		if err != nil {
			t.Fatal(err)
		}
		if res.Files < 1 {
			t.Fatalf("res = %+v", res)
		}
		_, st, _ := e.fs.Lookup(files[0].Path)
		if st == pfs.Migrated {
			t.Error("requested member still migrated")
		}
	})
}

func TestMigrateResultNodeAccounting(t *testing.T) {
	e := newEnv(t, 4, Config{})
	e.run(t, func() {
		files := e.mkFiles(t, "/d", 20, 1e9)
		res, err := e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, b := range res.NodeBytes {
			sum += b
		}
		if sum != res.Bytes {
			t.Errorf("node bytes sum %d != total %d", sum, res.Bytes)
		}
		for i, f := range res.NodeFinish {
			if res.NodeBytes[i] > 0 && f == 0 {
				t.Errorf("node %d moved bytes but has no finish time", i)
			}
		}
		_ = time.Second
	})
}
