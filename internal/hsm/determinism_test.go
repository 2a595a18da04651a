package hsm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// requeueRun runs one migrate-with-crash + recall-with-crash scenario
// on a fresh env and returns what the run leaves behind: the
// registry's text and every span of the flight dump. Both phases force
// a redistribution round: the crash leaves the dead actor's share
// behind, and the requeue path re-spreads it over the survivors.
func requeueRun(t *testing.T) []string {
	t.Helper()
	e := newEnv(t, 4, Config{})
	files := e.mkFiles(t, "/data", 120, 2e9)
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
	tel := telemetry.Of(e.clock)
	lines := strings.Split(tel.Snapshot().Text(), "\n")
	for _, sp := range tel.FlightDump().Spans {
		lines = append(lines, fmt.Sprintf("%+v", sp))
	}
	return lines
}

// TestRequeueDispatchDeterministic pins down the fix for the old
// map-iteration-order bug: requeued work after a mover/daemon crash
// used to be redistributed in Go map range order, so two runs of the
// identical scenario could dispatch in different orders. Leftovers are
// now sorted (migrate by path, recall by volume/seq/path) before every
// redistribution round, so every series and every span — which node
// moved which files, when, and where each admission waited — must be
// identical across repeated runs.
func TestRequeueDispatchDeterministic(t *testing.T) {
	first := requeueRun(t)
	for run := 2; run <= 3; run++ {
		again := requeueRun(t)
		for i := range max(len(first), len(again)) {
			if i >= len(first) || i >= len(again) || first[i] != again[i] {
				t.Fatalf("run %d diverges at line %d of %d:\n%s\nvs\n%s",
					run, i, len(first), lineAt(first, i), lineAt(again, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}
