package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// small is the quick CLI scenario: 40 files, 1 GB, seed 7.
var small = []string{"-files", "40", "-gb", "1", "-seed", "7", "-workers", "4", "-readdirs", "2", "-tapeprocs", "1"}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // substrings of stdout (exit 0) or stderr (otherwise)
	}{
		{"plain", nil, 0, []string{"archive: pfcp: 40 files"}},
		{"retrieve", []string{"-retrieve"}, 0, []string{
			"archive: pfcp: 40 files", "migrate: 40 files", "retrieve: pfcp: 40 files", " 40 restored",
		}},
		{"report", []string{"-report"}, 0, []string{"40 files"}},
		{"unknown flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined"}},
	} {
		var out, errw strings.Builder
		code := run(append(append([]string(nil), small...), tc.args...), &out, &errw)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.code, out.String(), errw.String())
			continue
		}
		got := out.String()
		if code != 0 {
			if got != "" {
				t.Errorf("%s: a failing run printed to stdout:\n%s", tc.name, got)
			}
			got = errw.String()
		}
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, got)
			}
		}
	}
}

// TestInterruptResumeAddsUp: every file of the killed run is accounted
// for on resume — pruned by the journal, skipped because it had landed
// but was not yet journaled, or copied.
func TestInterruptResumeAddsUp(t *testing.T) {
	var out, errw strings.Builder
	if code := run(append(append([]string(nil), small...), "-interrupt", "200ms"), &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	got := out.String()
	num := func(re string) int {
		m := regexp.MustCompile(re).FindStringSubmatch(got)
		if m == nil {
			t.Fatalf("output lacks %q:\n%s", re, got)
		}
		var n int
		fmt.Sscan(m[1], &n)
		return n
	}
	held := num(`journal holds (\d+) completed`)
	pruned := num(`resume: (\d+) file\(s\) pruned`)
	skipped := num(`, (\d+) skipped as already current`)
	copied := num(`archive: pfcp: (\d+) files`)
	if held == 0 || held == 40 {
		t.Errorf("journal held %d of 40 at the interrupt; the kill did not land mid-run", held)
	}
	if pruned != held {
		t.Errorf("pruned %d, journal held %d", pruned, held)
	}
	if pruned+skipped+copied != 40 {
		t.Errorf("pruned %d + skipped %d + copied %d != 40:\n%s", pruned, skipped, copied, got)
	}
}
