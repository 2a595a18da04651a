package main

import (
	"strings"
	"testing"

	"repro/cmd/internal/cli"
)

// smallFlags keeps the CLI scenario quick: a few dozen files, 1 GB.
func smallFlags() *cli.Flags {
	return &cli.Flags{Files: 40, TotalGB: 1, Workers: 4, ReadDirs: 2, TapeProcs: 1, Seed: 7}
}

func TestCleanCompareExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(smallFlags(), 0, true, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("clean run printed a mismatch:\n%s", out.String())
	}
}

func TestRecheckExitsNonzeroAndPrintsPathAndOffset(t *testing.T) {
	var out, errw strings.Builder
	code := run(smallFlags(), 2, true, &out, &errw)
	if code != 3 {
		t.Fatalf("exit = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	got := out.String()
	// Both the first compare and the journal-sharing recheck must flag
	// the damaged files, naming the path and the divergent byte.
	for _, pass := range []string{"compare: MISMATCH", "recheck: MISMATCH"} {
		if !strings.Contains(got, pass) {
			t.Errorf("output lacks %q:\n%s", pass, got)
		}
	}
	if !strings.Contains(got, "/archive/src/") || !strings.Contains(got, "at byte 0") {
		t.Errorf("mismatch lines lack the offending path + offset:\n%s", got)
	}
}
