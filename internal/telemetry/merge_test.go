package telemetry

import (
	"testing"

	"repro/internal/simtime"
)

func TestMerge(t *testing.T) {
	mk := func(island string, v float64) *Snapshot {
		r := Of(simtime.NewClock())
		r.Counter("jobs_total", "pool", "a").Add(v)
		r.Gauge("depth").Set(v * 2)
		return r.Snapshot()
	}
	s0, s1 := mk("east", 3), mk("west", 5)
	m := Merge("island", []string{"east", "west"}, []*Snapshot{s0, s1})
	if got := m.Value("jobs_total", "pool", "a", "island", "east"); got != 3 {
		t.Errorf("east jobs = %v, want 3", got)
	}
	if got := m.Value("jobs_total", "pool", "a", "island", "west"); got != 5 {
		t.Errorf("west jobs = %v, want 5", got)
	}
	if got := m.Total("depth"); got != 16 {
		t.Errorf("depth total = %v, want 16", got)
	}
	// Inputs are label-tagged copies; originals untouched.
	if got := s0.Value("jobs_total", "pool", "a"); got != 3 {
		t.Errorf("source snapshot mutated: %v", got)
	}
	// Deterministic order regardless of argument order.
	m2 := Merge("island", []string{"west", "east"}, []*Snapshot{s1, s0})
	if m.Text() != m2.Text() {
		t.Errorf("merge order leaked into exposition:\n%s\nvs\n%s", m.Text(), m2.Text())
	}
}
