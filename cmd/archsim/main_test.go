package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// archsim runs the command in-process and returns exit code, stdout
// and stderr.
func archsim(args ...string) (int, string, string) {
	var out, errw strings.Builder
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListPrintsNames(t *testing.T) {
	code, out, _ := archsim("-list")
	if want := strings.Join(experiments.Names(), "\n") + "\n"; code != 0 || out != want {
		t.Errorf("-list: exit %d, output %q, want %q", code, out, want)
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	code, out, errw := archsim("-exp", "nope")
	if code != 2 || out != "" {
		t.Errorf("exit %d, stdout %q, want 2 and nothing", code, out)
	}
	for _, n := range experiments.Names() {
		if !strings.Contains(errw, "\n  "+n+"\n") {
			t.Errorf("stderr does not list %q:\n%s", n, errw)
		}
	}
}

// TestRejectedFlags: an unknown flag is a usage error, and so is every
// flag the single -report replaced or that went with engine
// checkpoint/restore or the campaign-trace export — a stale CI line
// must fail loudly, not run the default experiment and write nothing.
func TestRejectedFlags(t *testing.T) {
	for _, f := range []string{
		"-no-such-flag",
		"-scrub-report", "-dr-report", "-tenant-report", "-storm-report", "-ops-report", "-parallel-report",
		"-bench-json", "-scale-json", "-parallel-bench-json", "-wall-ceiling",
		"-checkpoint", "-checkpoint-epoch", "-restore",
		"-save-trace",
	} {
		code, out, errw := archsim(f, "x", "-list")
		if code != 2 || out != "" || !strings.Contains(errw, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want a usage error", f, code, out, errw)
		}
	}
}

// envelope mirrors reportFile with the detail left raw.
type envelope struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Reports []struct {
		Name    string             `json:"name"`
		Body    string             `json:"body"`
		Metrics map[string]float64 `json:"metrics"`
		Detail  json.RawMessage    `json:"detail"`
	} `json:"reports"`
}

func readEnvelope(t *testing.T, path string) ([]byte, envelope) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: %v\n%s", path, err, raw)
	}
	return raw, env
}

func TestReportEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	code, out, errw := archsim("-exp", "smallfile", "-seed", "7", "-report", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errw)
	}
	reports, err := experiments.Run("smallfile", 7)
	if err != nil || len(reports) != 1 {
		t.Fatalf("experiments.Run: %d reports, %v", len(reports), err)
	}
	want := reports[0]
	if out != want.String()+"\n" {
		t.Errorf("stdout %q, want the rendered report", out)
	}
	_, env := readEnvelope(t, path)
	if env.Schema != "archsim-report/v1" || env.Seed != 7 || len(env.Reports) != 1 {
		t.Fatalf("envelope schema %q seed %d reports %d", env.Schema, env.Seed, len(env.Reports))
	}
	r := env.Reports[0]
	if r.Name != "smallfile" || r.Body != want.Body || !reflect.DeepEqual(r.Metrics, want.Metrics) {
		t.Errorf("report %+v, want %+v", r, want)
	}
	if r.Detail != nil {
		t.Errorf("smallfile sets no Detail, envelope carries %s", r.Detail)
	}
}

// TestReportDetailDeterministic: a Detail-bearing experiment's envelope
// carries its structured record, and two runs at one seed write
// byte-identical files.
func TestReportDetailDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, "integrity.json")
		if code, _, errw := archsim("-exp", "integrity", "-seed", "7", "-report", path); code != 0 {
			t.Fatalf("exit %d\n%s", code, errw)
		}
		raw, env := readEnvelope(t, path)
		files[i] = raw
		var passes []struct {
			ObjectsVerified int `json:"objects_verified"`
		}
		if err := json.Unmarshal(env.Reports[0].Detail, &passes); err != nil {
			t.Fatalf("detail %s: %v", env.Reports[0].Detail, err)
		}
		if len(passes) != 1 || passes[0].ObjectsVerified == 0 {
			t.Errorf("detail %s, want one scrub pass with verified objects", env.Reports[0].Detail)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("two runs at one seed wrote different envelopes:\n%s\n%s", files[0], files[1])
	}
}

// TestCPUProfileFlushedOnError: run returns instead of exiting, so the
// deferred StopCPUProfile writes the profile even when the run fails.
func TestCPUProfileFlushedOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code, _, _ := archsim("-cpuprofile", path, "-exp", "nope"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("profile after a failed run: %v, %v; want a non-empty file", st, err)
	}
}
