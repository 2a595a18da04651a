package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Errorf("N=%d Sum=%v Mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min=%v Max=%v", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Errorf("Median=%v", s.Median())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestPercentileEmpty(t *testing.T) {
	var s Summary
	for _, p := range []float64{0, 50, 90, 100} {
		if got := s.Percentile(p); got != 0 {
			t.Errorf("Percentile(%v) on empty summary = %v, want 0", p, got)
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Errorf("P0=%v P100=%v", s.Percentile(0), s.Percentile(100))
	}
	if p := s.Percentile(90); p < 89 || p > 91 {
		t.Errorf("P90=%v", p)
	}
}

func TestQuickPercentileWithinMinMax(t *testing.T) {
	f := func(vals []float64, p uint8) bool {
		var s Summary
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		q := s.Percentile(float64(p % 101))
		return q >= s.Min() && q <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram()
	h.Add(5)   // decade 0
	h.Add(50)  // decade 1
	h.Add(55)  // decade 1
	h.Add(5e6) // decade 6
	h.Add(0)   // sentinel
	h.Add(-3)  // sentinel
	if h.total != 6 {
		t.Errorf("Total=%d", h.total)
	}
	out := h.Render("files")
	want := map[string]string{"<=0": "2", "1e0": "1", "1e1": "2", "1e6": "1"}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		f := strings.Fields(line)
		if want[f[0]] != f[len(f)-1] || !strings.Contains(line, "#") {
			t.Errorf("Render line %q", line)
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Errorf("Render missing buckets %v:\n%s", want, out)
	}
}

func TestLogHistogramEmptyRender(t *testing.T) {
	if out := NewLogHistogram().Render("x"); out != "(empty)\n" {
		t.Errorf("Render = %q", out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("job", "MB/s")
	tb.Row(1, 575.25)
	tb.Row(2, 73.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "job") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "575.25") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestUnitHelpers(t *testing.T) {
	if MB(5e6) != 5 || GB(3e9) != 3 {
		t.Error("unit conversions wrong")
	}
}

func TestPercentileCacheInterleavedWithAdd(t *testing.T) {
	var s Summary
	// Interleave queries and additions: each Percentile call must see
	// every observation added so far, not a stale cached sort.
	s.Add(10)
	if got := s.Percentile(50); got != 10 {
		t.Fatalf("median of {10} = %v", got)
	}
	s.Add(2)
	s.Add(30)
	if got := s.Percentile(50); got != 10 {
		t.Fatalf("median of {2,10,30} = %v", got)
	}
	if got := s.Percentile(0); got != 2 {
		t.Fatalf("p0 of {2,10,30} = %v", got)
	}
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 after adding 1 = %v (stale cache?)", got)
	}
	if got := s.Percentile(100); got != 30 {
		t.Fatalf("p100 = %v", got)
	}
	// Repeated queries without Add hit the cache and stay consistent.
	for i := 0; i < 3; i++ {
		if got := s.Percentile(50); got != s.Median() {
			t.Fatalf("repeated median query drifted: %v", got)
		}
	}
	s.Add(100)
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 after adding 100 = %v (stale cache?)", got)
	}
}
