package tsm

import (
	"errors"
	"testing"
	"time"
)

func TestRecallBatchEmptyIsNoop(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		objs, err := e.srv.RecallBatch(RecallBatchRequest{Client: "c", Volume: "VOL0001"})
		if err != nil || objs != nil {
			t.Errorf("empty batch: %v, %v", objs, err)
		}
	})
}

func TestRecallBatchRejectsWrongVolume(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		a, _ := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e6})
		_, err := e.srv.RecallBatch(RecallBatchRequest{
			Client: "c", Volume: "VOL9999", ObjectIDs: []uint64{a.ID},
		})
		if err == nil {
			t.Error("wrong volume accepted")
		}
	})
}

func TestRecallBatchRejectsDeletedObject(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		a, _ := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e6})
		e.srv.Delete(a.ID)
		_, err := e.srv.RecallBatch(RecallBatchRequest{
			Client: "c", Volume: a.Volume, ObjectIDs: []uint64{a.ID},
		})
		if !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("err = %v, want ErrNoSuchObject", err)
		}
	})
}

func TestRecallBatchStreamsInOrder(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		var ids []uint64
		var vol string
		for i := 0; i < 10; i++ {
			o, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 1e9, Group: "g"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, o.ID)
			vol = o.Volume
		}
		pre := e.lib.TotalStats()
		objs, err := e.srv.RecallBatch(RecallBatchRequest{Client: "c", Volume: vol, ObjectIDs: ids})
		if err != nil || len(objs) != 10 {
			t.Fatalf("RecallBatch = %d, %v", len(objs), err)
		}
		post := e.lib.TotalStats()
		// In-order streaming: one seek back to the first file at most.
		if seeks := post.Seeks - pre.Seeks; seeks > 1 {
			t.Errorf("in-order batch used %d seeks", seeks)
		}
		if verifies := post.LabelVerifies - pre.LabelVerifies; verifies != 0 {
			t.Errorf("same-client batch verified labels %d times", verifies)
		}
	})
}

func TestStoreNegativeSizeRejected(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/x", Bytes: -1}); err == nil {
			t.Error("negative size accepted")
		}
	})
}

func TestQueryByPathMissing(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.QueryByPath("/absent"); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestGetMissing(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.Get(404); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestLiveFraction(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if f := e.srv.liveFraction("VOL0001"); f != 1 {
			t.Errorf("empty volume liveFraction = %v, want 1", f)
		}
		a, _ := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 3e6, Group: "g"})
		e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1e6, Group: "g"})
		e.srv.Delete(a.ID)
		if f := e.srv.liveFraction(a.Volume); f != 0.25 {
			t.Errorf("liveFraction = %v, want 0.25", f)
		}
	})
}

func TestClientAffinityAvoidsHandoffVerifies(t *testing.T) {
	// One client storing repeatedly must not pay label re-verification:
	// its storage agent keeps its own mount point.
	e := newEnv(4, DefaultConfig())
	e.run(t, func() {
		for i := 0; i < 10; i++ {
			if _, err := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		s := e.lib.TotalStats()
		// One mount, one verify; no hand-off re-verifies.
		if s.LabelVerifies != s.Mounts {
			t.Errorf("verifies %d != mounts %d: hand-off penalties paid by a single client", s.LabelVerifies, s.Mounts)
		}
	})
}

func TestStatsSnapshot(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1e6})
		stores, bytes, txns := e.count("tsm_stores_total"), e.count("tsm_bytes_stored_total"), e.count("tsm_transactions_total")
		if stores != 1 || bytes != 1e6 || txns == 0 {
			t.Errorf("stores/bytes/transactions = %d/%d/%d", stores, bytes, txns)
		}
	})
}

func TestTxnParallelismBoundsThroughput(t *testing.T) {
	// 32 concurrent metadata-only operations through a server with
	// TxnParallel=2 and 10ms transactions: at least 16 serialized
	// rounds.
	cfg := DefaultConfig()
	cfg.TxnCost = 10 * time.Millisecond
	cfg.TxnParallel = 2
	clock, lib := newLibEnv(1, 4)
	srv := NewServer(clock, cfg, lib)
	for i := 0; i < 32; i++ {
		clock.Go(func() {
			srv.QueryByPath("/nothing") // txn + (empty) scan
		})
	}
	end, err := clock.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end < 160*time.Millisecond {
		t.Errorf("32 txns at 2-wide 10ms took %v, want >= 160ms", end)
	}
}
