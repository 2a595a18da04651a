package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	small := []string{"-files", "40", "-gb", "1", "-seed", "7"}
	for _, tc := range []struct {
		name  string
		args  []string
		code  int
		want  string // substring of stdout (exit 0) or stderr (otherwise)
		lines int    // stdout lines
	}{
		{"summary", nil, 0, "pfls: 40 files, 1 dirs, 1000000000 bytes", 1},
		// -v adds one line per file ahead of the summary.
		{"verbose", []string{"-v"}, 0, "/src/d0000/f000039", 41},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined", 0},
	} {
		var out, errw strings.Builder
		code := run(append(append([]string(nil), small...), tc.args...), &out, &errw)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.code, out.String(), errw.String())
			continue
		}
		got := out.String()
		if n := strings.Count(got, "\n"); n != tc.lines {
			t.Errorf("%s: %d stdout lines, want %d:\n%s", tc.name, n, tc.lines, got)
		}
		if code != 0 {
			got = errw.String()
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, got)
		}
	}
}
