package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_seed7.txt from this run")

const goldenFile = "testdata/golden_seed7.txt"

// TestGoldenSeed7 pins determinism: every experiment "all" runs is a
// pure function of the seed, so the SHA-256 of its rendered report
// (plus the registry snapshot where one is attached) at seed 7 must
// match the committed digest, one line per report. The campaign group
// runs capped — the full 62-job replay would dominate the suite.
// Regenerate with: go test ./internal/experiments -run Golden -update
func TestGoldenSeed7(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replays every seed-determined experiment")
	}
	var got strings.Builder
	for _, e := range table {
		if !e.inAll {
			continue
		}
		run := e.run
		if e.name == "campaign" {
			run = func(seed int64) []Report {
				return campaign(CampaignParams{Seed: seed, Jobs: 6, MaxSimFiles: 2000})
			}
		}
		for _, r := range run(7) {
			checkLabelKeys(t, r)
			h := sha256.New()
			h.Write([]byte(r.String()))
			if r.Telemetry != nil {
				h.Write([]byte(r.Telemetry.Text()))
			}
			fmt.Fprintf(&got, "%s %x\n", r.Name, h.Sum(nil))
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}

// checkLabelKeys holds every label list the run produced to what
// telemetry.labelsOf's in-place insertion sort relies on to stay
// byte-identical with the sort.Slice it replaced: series labels ascend
// strictly by key, and no span or event carries a key twice.
func checkLabelKeys(t *testing.T, r Report) {
	t.Helper()
	distinct := func(what string, ls []telemetry.Label) {
		for i, l := range ls {
			for _, m := range ls[:i] {
				if m.Key == l.Key {
					t.Errorf("%s: %s carries label key %q twice", r.Name, what, l.Key)
				}
			}
		}
	}
	if r.Telemetry != nil {
		for _, p := range r.Telemetry.Points {
			for i := 1; i < len(p.Labels); i++ {
				if p.Labels[i-1].Key >= p.Labels[i].Key {
					t.Errorf("%s: series %s labels not strictly ascending by key: %v", r.Name, p.Name, p.Labels)
				}
			}
		}
	}
	if r.Flight != nil {
		for _, sp := range r.Flight.Spans {
			distinct("span "+sp.Name, sp.Attrs)
		}
		for _, ev := range r.Flight.Events {
			distinct("event "+ev.Name, ev.Attrs)
		}
	}
}
