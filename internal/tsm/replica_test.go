package tsm

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/tape"
)

func TestStoreAndReadReplica(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("cp", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		obj := Object{ID: 42, Path: "/proj/f0", Bytes: 1e9, Sum: 777}
		if err := e.srv.StoreReplica("rep:remote", "cell-east", obj, nil); err != nil {
			t.Fatal(err)
		}
		if !e.srv.HasReplica("cell-east", 42) {
			t.Error("replica not cataloged")
		}
		if e.srv.HasReplica("cell-west", 42) {
			t.Error("replica visible under the wrong home cell")
		}
		// Idempotent on (cell, ID): a catch-up re-offer is a no-op.
		if err := e.srv.StoreReplica("rep:remote", "cell-east", obj, nil); err != nil {
			t.Fatal(err)
		}
		if n := e.srv.NumReplicas(); n != 1 {
			t.Errorf("NumReplicas = %d after duplicate store, want 1", n)
		}
		// Same ID from a different home cell is a distinct replica.
		if err := e.srv.StoreReplica("rep:remote", "cell-west", obj, nil); err != nil {
			t.Fatal(err)
		}
		if n := e.srv.NumReplicas(); n != 2 {
			t.Errorf("NumReplicas = %d, want 2", n)
		}

		rep, err := e.srv.ReadReplica("dr:portal", "cell-east", 42, fabric.Path{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Bytes != 1e9 || rep.Sum != 777 {
			t.Errorf("replica = %+v", rep)
		}
		if _, err := e.srv.ReadReplica("dr:portal", "cell-east", 99, fabric.Path{}, nil); !errors.Is(err, errNoReplica) {
			t.Errorf("missing replica err = %v, want ErrNoReplica", err)
		}
		stored, recalled := e.count("tsm_replicas_stored_total"), e.count("tsm_replica_recalls_total")
		if stored != 2 || recalled != 1 {
			t.Errorf("replicas = %d stored / %d recalled, want 2 stored / 1 recalled", stored, recalled)
		}
	})
}

func TestReplicaPathsFailFastDuringOutage(t *testing.T) {
	e := newEnv(2, DefaultConfig())
	e.srv.AddCopyPool("cp", 2, tape.LTO4().Capacity)
	e.run(t, func() {
		obj := Object{ID: 1, Path: "/p/f", Bytes: 1e6, Sum: 5}
		if err := e.srv.StoreReplica("rep:a", "c", obj, nil); err != nil {
			t.Fatal(err)
		}
		start := e.clock.Now()
		e.srv.SetDown(true)
		// Unlike primary transactions (which block until repair), the
		// replica paths return immediately so callers can park work.
		if err := e.srv.StoreReplica("rep:a", "c", Object{ID: 2, Path: "/p/g", Bytes: 1e6}, nil); !errors.Is(err, ErrServerDown) {
			t.Errorf("StoreReplica during outage: %v, want ErrServerDown", err)
		}
		if _, err := e.srv.ReadReplica("dr:a", "c", 1, fabric.Path{}, nil); !errors.Is(err, ErrServerDown) {
			t.Errorf("ReadReplica during outage: %v, want ErrServerDown", err)
		}
		if e.clock.Now() != start {
			t.Error("fail-fast path charged virtual time")
		}
		e.srv.SetDown(false)
		if _, err := e.srv.ReadReplica("dr:a", "c", 1, fabric.Path{}, nil); err != nil {
			t.Errorf("ReadReplica after repair: %v", err)
		}
	})
}

func TestStoreReplicaNeedsCopyPool(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		err := e.srv.StoreReplica("rep:a", "c", Object{ID: 1, Bytes: 1e6}, nil)
		if !errors.Is(err, tape.ErrNoScratch) {
			t.Errorf("StoreReplica without a copy pool: %v, want ErrNoScratch", err)
		}
	})
}
