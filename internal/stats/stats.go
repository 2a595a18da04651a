// Package stats provides the small statistics toolkit the experiment
// harness uses to regenerate the paper's figures: streaming summaries
// (min/max/mean/percentiles), log10 histograms (Figures 8, 9 and 11 are
// log-scale series), and fixed-width table/series rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates values and reports order statistics.
type Summary struct {
	vals   []float64
	sum    float64
	sorted []float64 // cached sort of vals; nil after Add invalidates it
}

// Add appends one observation.
func (s *Summary) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = nil
}

// N reports the observation count.
func (s *Summary) N() int { return len(s.vals) }

// Sum reports the observation total.
func (s *Summary) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean (0 for empty).
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min reports the smallest observation (0 for empty).
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max reports the largest observation (0 for empty).
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile reports the p-th percentile (0 <= p <= 100) by nearest
// rank on the sorted observations. The sorted order is computed once
// and cached until the next Add, so percentile-heavy reporting (every
// summaryRows call asks for four quantiles) sorts each sample set once
// instead of per query.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.vals...)
		sort.Float64s(s.sorted)
	}
	sorted := s.sorted
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Median is Percentile(50).
func (s *Summary) Median() float64 { return s.Percentile(50) }

// LogHistogram buckets positive values by order of magnitude — the
// shape of the paper's log10-scale job plots.
type LogHistogram struct {
	counts map[int]int
	total  int
}

// NewLogHistogram creates an empty histogram.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{counts: make(map[int]int)}
}

// Add buckets one value by floor(log10(v)); non-positive values land in
// a sentinel bucket below every real one.
func (h *LogHistogram) Add(v float64) {
	h.total++
	if v <= 0 {
		h.counts[math.MinInt32]++
		return
	}
	h.counts[int(math.Floor(math.Log10(v)))]++
}

// Render draws the histogram as fixed-width text with one row per
// populated decade, labelled with the unit.
func (h *LogHistogram) Render(unit string) string {
	if h.total == 0 {
		return "(empty)\n"
	}
	var decades []int
	for d := range h.counts {
		decades = append(decades, d)
	}
	sort.Ints(decades)
	maxCount := 0
	for _, d := range decades {
		if h.counts[d] > maxCount {
			maxCount = h.counts[d]
		}
	}
	var b strings.Builder
	for _, d := range decades {
		label := "<=0"
		if d != math.MinInt32 {
			label = fmt.Sprintf("1e%d", d)
		}
		bar := strings.Repeat("#", h.counts[d]*40/maxCount)
		fmt.Fprintf(&b, "%8s %-6s |%-40s| %d\n", label, unit, bar, h.counts[d])
	}
	return b.String()
}

// Table renders fixed-width rows: a convenience for the harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row, formatting each cell with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-2:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// MB converts bytes to the paper's megabytes (1e6).
func MB(bytes float64) float64 { return bytes / 1e6 }

// GB converts bytes to the paper's gigabytes (1e9).
func GB(bytes float64) float64 { return bytes / 1e9 }
