package tsm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fabric"
)

// TestObjectTableAcrossChunkBoundary stores past the first table chunk
// with failed stores on both sides of the boundary: the IDs they took
// read as absent everywhere, and the objects around them stay put.
func TestObjectTableAcrossChunkBoundary(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		var ids []uint64
		for id := uint64(1); id <= objChunk+3; id++ {
			req := StoreRequest{Client: "fta01", Path: fmt.Sprintf("/f%d", id), FileID: id, Bytes: 1e6}
			if id == objChunk || id == objChunk+1 {
				req.Bytes = 1e15 // fits no volume: fails after taking its ID
				if _, err := e.srv.Store(req); !errors.Is(err, errTooLarge) {
					t.Fatalf("store of ID %d: err = %v, want ErrTooLarge", id, err)
				}
				continue
			}
			obj, err := e.srv.Store(req)
			if err != nil || obj.ID != id {
				t.Fatalf("store of ID %d: %+v, %v", id, obj, err)
			}
			ids = append(ids, id)
		}
		for _, id := range []uint64{0, objChunk, objChunk + 1, objChunk + 4, 10 * objChunk} {
			if _, err := e.srv.Get(id); !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("Get(%d): err = %v, want ErrNoSuchObject", id, err)
			}
			if err := e.srv.Delete(id); !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("Delete(%d): err = %v, want ErrNoSuchObject", id, err)
			}
			vol := e.lib.Cartridges()[0].Label
			if _, err := e.srv.RecallBatch(RecallBatchRequest{Client: "fta01", Volume: vol, ObjectIDs: []uint64{id}}); !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("RecallBatch(%d): err = %v, want ErrNoSuchObject", id, err)
			}
		}
		for _, id := range []uint64{1, objChunk - 1, objChunk + 2, objChunk + 3} {
			if o, err := e.srv.Get(id); err != nil || o.ID != id || o.FileID != id {
				t.Errorf("Get(%d) = %+v, %v", id, o, err)
			}
		}
		if err := e.srv.Delete(objChunk + 2); err != nil {
			t.Fatal(err)
		}
		// LiveObjects keeps commit order and skips the deleted object.
		want := append(ids[:len(ids)-2:len(ids)-2], objChunk+3)
		live := e.srv.LiveObjects()
		if n := e.srv.NumObjects(); n != len(live) || n != len(want) {
			t.Errorf("NumObjects = %d, LiveObjects %d, want %d", n, len(live), len(want))
		}
		for i, o := range live {
			if o.ID != want[i] {
				t.Fatalf("LiveObjects[%d].ID = %d, want %d", i, o.ID, want[i])
			}
		}
	})
}

// storeOnStream returns a LAN-free server on one drive and a store
// request that carries 8 MB over a persistent fabric stream, the way an
// HSM migration mover stores its share.
func storeOnStream(e *env) StoreRequest {
	fab := fabric.Of(e.clock)
	fab.AddLink("fta01-hba", 1e9, "fta01", "san")
	route, err := fab.Route("fta01", "", "san")
	if err != nil {
		panic(err)
	}
	return StoreRequest{Client: "fta01", Path: "/mig/f", FileID: 1, Bytes: 8e6, Stream: e.srv.NewStream(route)}
}

// storeAllocs is the allocation count of one Store on a LAN-free stream:
// the session grant and the store and drive spans, each span one
// allocation with its labels and attributes inline. The drive operation
// runs on the storing actor, so it costs no actor state, closure or
// event of its own.
const storeAllocs = 4

// TestStoreAllocs guards Store's per-call allocations: the request and
// the tape file stay on the stack and the catalog holds objects by
// value.
func TestStoreAllocs(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		req := storeOnStream(e)
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := e.srv.Store(req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > storeAllocs {
			t.Errorf("Store: %.0f allocations per call, want <= %d", allocs, storeAllocs)
		}
	})
}

func BenchmarkStore(b *testing.B) {
	e := newEnv(1, DefaultConfig())
	e.clock.Go(func() {
		req := storeOnStream(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.srv.Store(req); err != nil {
				panic(err)
			}
		}
	})
	if _, err := e.clock.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecallBatch is the read use of moveData: one-object batches
// read back, in tape order, what a LAN-free client stored, each crossing
// the fabric route from the SAN to the client's HBA.
func BenchmarkRecallBatch(b *testing.B) {
	const stored = 256
	e := newEnv(1, DefaultConfig())
	e.clock.Go(func() {
		req := storeOnStream(e)
		ids := make([]uint64, stored)
		var vol string
		for i := range ids {
			obj, err := e.srv.Store(req)
			if err != nil {
				panic(err)
			}
			ids[i], vol = obj.ID, obj.Volume
		}
		route, err := fabric.Of(e.clock).Route("san", "", "fta01")
		if err != nil {
			panic(err)
		}
		rreq := RecallBatchRequest{Client: "fta01", Volume: vol, Route: route, ObjectIDs: ids[:1]}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rreq.ObjectIDs = ids[i%stored : i%stored+1]
			if _, err := e.srv.RecallBatch(rreq); err != nil {
				panic(err)
			}
		}
	})
	if _, err := e.clock.Run(); err != nil {
		b.Fatal(err)
	}
}
