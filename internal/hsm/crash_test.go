package hsm

import (
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// crashNodeAt schedules node i of the env's cluster to crash at the
// given virtual time (and optionally reboot after the window).
func (e *env) crashNodeAt(i int, at, reboot time.Duration) {
	e.clock.At(at, func() { e.cl.Nodes()[i].SetDown(true) })
	if reboot > 0 {
		e.clock.At(at+reboot, func() { e.cl.Nodes()[i].SetDown(false) })
	}
}

func TestMigrateSurvivesMoverCrash(t *testing.T) {
	e := newEnv(t, 4, Config{})
	files := e.mkFiles(t, "/data", 40, 2e9)
	// Kill one mover early in the run, permanently: its share must be
	// redistributed and every file still archived exactly once.
	e.crashNodeAt(0, 2*time.Minute, 0)
	var res MigrateResult
	e.run(t, func() {
		var err error
		res, err = e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Errorf("migrate with mover crash: %v", err)
		}
	})
	if res.Files != 40 {
		t.Fatalf("migrated %d files, want 40", res.Files)
	}
	if rounds := telemetry.Of(e.clock).Snapshot().Value("hsm_migration_rounds_total"); rounds < 2 || res.Requeued == 0 {
		t.Errorf("expected a redistribution round, got rounds=%v requeued=%d", rounds, res.Requeued)
	}
	// Exactly once: every file is stubbed and TSM holds exactly one
	// object per file.
	for _, f := range files {
		if _, st, _ := e.fs.Lookup(f.Path); st != pfs.Migrated {
			t.Errorf("%s state = %v, want Migrated", f.Path, st)
		}
	}
	if n := e.srv.NumObjects(); n != 40 {
		t.Errorf("TSM holds %d objects, want 40 (exactly once)", n)
	}
}

func TestMigrateCrashDoesNotDuplicateAggregates(t *testing.T) {
	cfg := Config{AggregateThreshold: 100e6, AggregateTarget: 1e9}
	e := newEnv(t, 4, cfg)
	files := e.mkFiles(t, "/small", 200, 8e6)
	e.crashNodeAt(1, time.Minute, 0)
	var res MigrateResult
	e.run(t, func() {
		var err error
		res, err = e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err != nil {
			t.Errorf("aggregate migrate with crash: %v", err)
		}
	})
	if res.Files != 200 {
		t.Fatalf("migrated %d files, want 200", res.Files)
	}
	migrated := 0
	for _, f := range files {
		if _, st, _ := e.fs.Lookup(f.Path); st == pfs.Migrated {
			migrated++
		}
	}
	if migrated != 200 {
		t.Errorf("%d files stubbed, want 200", migrated)
	}
	// No member may appear in two aggregates.
	seen := make(map[string]int)
	for _, members := range e.eng.aggMembers {
		for _, m := range members {
			seen[m.path]++
			if seen[m.path] > 1 {
				t.Errorf("%s bundled twice", m.path)
			}
		}
	}
}

func TestRecallSurvivesDaemonCrash(t *testing.T) {
	e := newEnv(t, 4, Config{})
	files := e.mkFiles(t, "/data", 30, 2e9)
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.Path
	}
	e.run(t, func() {
		if _, err := e.eng.Migrate(files, MigrateOptions{Balanced: true}); err != nil {
			t.Fatalf("seed migrate: %v", err)
		}
		// Crash a recall node shortly into the recall, reboot later.
		start := e.clock.Now()
		e.clock.At(start+2*time.Minute, func() { e.cl.Nodes()[2].SetDown(true) })
		res, err := e.eng.Recall(paths, RecallOrdered)
		if err != nil {
			t.Fatalf("recall with daemon crash: %v", err)
		}
		if res.Files != 30 {
			t.Errorf("recalled %d files, want 30", res.Files)
		}
		for _, p := range paths {
			if _, st, _ := e.fs.Lookup(p); st == pfs.Migrated {
				t.Errorf("%s still migrated after recall", p)
			}
		}
	})
}

func TestMigrateAllNodesDeadFails(t *testing.T) {
	e := newEnv(t, 2, Config{})
	files := e.mkFiles(t, "/data", 4, 1e9)
	for _, n := range e.cl.Nodes() {
		n.SetDown(true)
	}
	e.run(t, func() {
		res, err := e.eng.Migrate(files, MigrateOptions{Balanced: true})
		if err == nil {
			t.Error("migrate with every mover dead should fail")
		}
		if res.Files != 0 {
			t.Errorf("migrated %d files with no movers", res.Files)
		}
	})
	for _, f := range files {
		if _, st, _ := e.fs.Lookup(f.Path); st != pfs.Resident {
			t.Errorf("%s state = %v, want still Resident", f.Path, st)
		}
	}
}
