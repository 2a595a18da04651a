package tsm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/tape"
	"repro/internal/telemetry"
)

type env struct {
	clock *simtime.Clock
	lib   *tape.Library
	srv   *Server
}

func newEnv(drives int, cfg Config) *env {
	clock := simtime.NewClock()
	lib := tape.NewLibrary(clock, drives, 40, 2, tape.LTO4())
	return &env{clock: clock, lib: lib, srv: NewServer(clock, cfg, lib)}
}

// count reads a lifetime counter from the env's registry; each env
// runs one server on its clock, so the series is that server's.
func (e *env) count(name string) int {
	return int(telemetry.Of(e.clock).Counter(name).Value())
}

func (e *env) run(t *testing.T, fn func()) time.Duration {
	t.Helper()
	e.clock.Go(fn)
	end, err := e.clock.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestStoreAndGet(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", FileID: 7, Bytes: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		if obj.ID == 0 || obj.Volume == "" || obj.Seq != 1 {
			t.Errorf("obj = %+v", obj)
		}
		got, err := e.srv.Get(obj.ID)
		if err != nil || got.FileID != 7 {
			t.Errorf("Get = %+v, %v", got, err)
		}
		if e.srv.NumObjects() != 1 {
			t.Errorf("NumObjects = %d, want 1", e.srv.NumObjects())
		}
	})
}

func TestStoreChargesTapeTime(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	spec := tape.LTO4()
	end := e.run(t, func() {
		if _, err := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: 10e9}); err != nil {
			t.Fatal(err)
		}
	})
	// At minimum: mount + label + penalty + 10e9/rate of streaming.
	min := spec.MountTime + spec.LabelVerifyTime + spec.StartStopPenalty +
		time.Duration(10e9/spec.StreamRate*1e9)
	if end < min {
		t.Errorf("store took %v, want >= %v", end, min)
	}
}

func TestParallelStoresUseMultipleDrives(t *testing.T) {
	// Two clients storing concurrently with two drives should take
	// about as long as one store, not twice as long — the LAN-free
	// parallel data movement of Fig. 6.
	single := func(drives, stores int) time.Duration {
		e := newEnv(drives, DefaultConfig())
		clock := e.clock
		for i := 0; i < stores; i++ {
			i := i
			clock.Go(func() {
				_, err := e.srv.Store(StoreRequest{
					Client: []string{"fta01", "fta02"}[i%2],
					Path:   "/f", Bytes: 50e9,
				})
				if err != nil {
					t.Error(err)
				}
			})
		}
		end, err := clock.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	one := single(2, 1)
	two := single(2, 2)
	if two > one+one/4 {
		t.Errorf("2 parallel stores on 2 drives took %v, single took %v: not parallel", two, one)
	}
	serial := single(1, 2)
	if serial < 2*one-one/4 {
		t.Errorf("2 stores on 1 drive took %v, want ~%v (serialized)", serial, 2*one)
	}
}

func TestRecallRoundTrip(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.run(t, func() {
		obj, err := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: 2e9})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.srv.Recall(RecallRequest{Client: "fta01", ObjectID: obj.ID})
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != obj.ID || got.Bytes != 2e9 {
			t.Errorf("recalled %+v", got)
		}
		if stores, recalls := e.count("tsm_stores_total"), e.count("tsm_recalls_total"); stores != 1 || recalls != 1 {
			t.Errorf("stores/recalls = %d/%d, want 1/1", stores, recalls)
		}
	})
}

func TestRecallMissingObject(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.Recall(RecallRequest{Client: "x", ObjectID: 99}); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("err = %v, want ErrNoSuchObject", err)
		}
	})
}

func TestDeleteIsLogical(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		obj, _ := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: 1e6})
		if err := e.srv.Delete(obj.ID); err != nil {
			t.Fatal(err)
		}
		if e.srv.NumObjects() != 0 {
			t.Error("object still live after delete")
		}
		if _, err := e.srv.Recall(RecallRequest{Client: "x", ObjectID: obj.ID}); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("recall of deleted: %v", err)
		}
		if err := e.srv.Delete(obj.ID); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("double delete: %v", err)
		}
		// Tape space is NOT reclaimed by a logical delete.
		carts := e.lib.Cartridges()
		var used int64
		for _, c := range carts {
			used += c.Used()
		}
		if used != 1e6 {
			t.Errorf("tape used = %d, want 1e6 (logical delete keeps data)", used)
		}
	})
}

func TestCoLocationGroupsShareVolumes(t *testing.T) {
	e := newEnv(4, DefaultConfig())
	e.run(t, func() {
		var vols []string
		for i := 0; i < 5; i++ {
			obj, err := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: 1e9, Group: "proj-a"})
			if err != nil {
				t.Fatal(err)
			}
			vols = append(vols, obj.Volume)
		}
		for _, v := range vols[1:] {
			if v != vols[0] {
				t.Errorf("co-located store landed on %s, want %s", v, vols[0])
			}
		}
	})
}

func TestQueryByPathScansWholeDB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxnCost = 0
	e := newEnv(2, cfg)
	var shortScan, longScan time.Duration
	e.run(t, func() {
		e.srv.Store(StoreRequest{Client: "c", Path: "/first", Bytes: 1})
		t0 := e.clock.Now()
		e.srv.QueryByPath("/first")
		shortScan = e.clock.Now() - t0
		for i := 0; i < 5000; i++ {
			e.srv.Store(StoreRequest{Client: "c", Path: "/bulk", Bytes: 1})
		}
		t0 = e.clock.Now()
		if _, err := e.srv.QueryByPath("/first"); err != nil {
			t.Error(err)
		}
		longScan = e.clock.Now() - t0
	})
	if longScan <= shortScan {
		t.Errorf("query over 5001 rows (%v) should cost more than over 1 row (%v): DB is unindexed", longScan, shortScan)
	}
}

func TestNonLANFreeBottlenecksOnServer(t *testing.T) {
	// 24 concurrent 20 GB stores on 24 drives (the paper's drive
	// count): LAN-free moves 24 x 100 MB/s in parallel; without it all
	// data funnels through the ~1.18 GB/s server NIC, which becomes the
	// bottleneck.
	elapsed := func(lanFree bool) time.Duration {
		cfg := DefaultConfig()
		cfg.LANFree = lanFree
		e := newEnv(24, cfg)
		for i := 0; i < 24; i++ {
			i := i
			e.clock.Go(func() {
				_, err := e.srv.Store(StoreRequest{
					Client: "fta" + string(rune('a'+i)),
					Path:   "/f", Bytes: 20e9,
				})
				if err != nil {
					t.Error(err)
				}
			})
		}
		end, err := e.clock.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	lf := elapsed(true)
	central := elapsed(false)
	if central <= lf {
		t.Errorf("central-server path (%v) should be slower than LAN-free (%v)", central, lf)
	}
}

func TestExportListsLiveObjects(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		a, _ := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 1})
		b, _ := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 1})
		e.srv.Delete(a.ID)
		objs := e.srv.Export()
		if len(objs) != 1 || objs[0].ID != b.ID {
			t.Errorf("Export = %+v", objs)
		}
	})
}

func TestStoreTooLargeForVolume(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		if _, err := e.srv.Store(StoreRequest{Client: "c", Path: "/f", Bytes: 2 * tape.LTO4().Capacity}); err == nil {
			t.Error("oversized store should fail")
		}
	})
}

func TestVolumeSpillsWhenFull(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		// Two 500 GB objects cannot share an 800 GB volume.
		a, err := e.srv.Store(StoreRequest{Client: "c", Path: "/a", Bytes: 500e9, Group: "g"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.srv.Store(StoreRequest{Client: "c", Path: "/b", Bytes: 500e9, Group: "g"})
		if err != nil {
			t.Fatal(err)
		}
		if a.Volume == b.Volume {
			t.Error("second object should have spilled to a new volume")
		}
	})
}
