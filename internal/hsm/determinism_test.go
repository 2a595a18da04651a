package hsm

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

// dispatchTrace runs one migrate-with-crash + recall-with-crash
// scenario on a fresh env and returns the scheduler's admission trace.
// Both phases force a redistribution round: the crash leaves the dead
// actor's share behind, and the requeue path re-spreads it over the
// survivors.
func dispatchTrace(t *testing.T) []sched.Dispatch {
	t.Helper()
	e := newEnv(t, 4, Config{})
	sch := sched.Of(e.clock)
	sch.EnableTrace()
	files := e.mkFiles(t, "/data", 40, 2e9)
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.Path
	}
	e.run(t, func() {
		e.clock.At(e.clock.Now()+2*time.Minute, func() { e.cl.Nodes()[0].SetDown(true) })
		res, err := e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
		if res.Requeued == 0 {
			t.Error("crash scenario produced no requeue; test exercises nothing")
		}
		e.cl.Nodes()[0].SetDown(false)
		e.clock.At(e.clock.Now()+2*time.Minute, func() { e.cl.Nodes()[2].SetDown(true) })
		if _, err := e.eng.Recall(paths, RecallOrdered); err != nil {
			t.Errorf("recall: %v", err)
		}
	})
	return sch.TraceLog()
}

// TestRequeueDispatchDeterministic pins down the fix for the old
// map-iteration-order bug: requeued work after a mover/daemon crash
// used to be redistributed in Go map range order, so two runs of the
// identical scenario could dispatch in different orders. Leftovers are
// now sorted (migrate by path, recall by volume/seq/path) before every
// redistribution round, so the full admission trace — sequence,
// virtual time, station, tenant, class, kind, units — must be
// identical across repeated runs.
func TestRequeueDispatchDeterministic(t *testing.T) {
	first := dispatchTrace(t)
	if len(first) == 0 {
		t.Fatal("no dispatches traced")
	}
	for run := 0; run < 2; run++ {
		again := dispatchTrace(t)
		if !reflect.DeepEqual(first, again) {
			n := len(again)
			if len(first) < n {
				n = len(first)
			}
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(first[i], again[i]) {
					t.Fatalf("run %d diverges at dispatch %d: %+v vs %+v",
						run+2, i, first[i], again[i])
				}
			}
			t.Fatalf("run %d trace length %d, want %d", run+2, len(again), len(first))
		}
	}
}
