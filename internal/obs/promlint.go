package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// A promtool-style lint of the Prometheus text exposition format,
// strict enough to catch the drifts that matter here: missing or
// repeated TYPE lines, malformed names, broken label escaping,
// duplicate series, negative counters, non-cumulative histogram
// buckets. CI runs it against a live E22 scrape; the ops drill runs it
// against every scrape the scripted operator takes.

// Sample is one parsed sample line.
type Sample struct {
	Name   string // full sample name (may carry _bucket/_sum/_count)
	Labels map[string]string
	Value  float64
}

// Exposition is one parsed scrape.
type Exposition struct {
	Types   map[string]string // family -> counter|gauge|histogram|summary|untyped
	Samples []Sample
}

// family resolves the family a sample belongs to: its name, or the
// name minus a _bucket/_sum/_count suffix when the remainder is a
// declared histogram or summary family.
func (e *Exposition) family(sampleName string) string {
	if _, ok := e.Types[sampleName]; ok {
		return sampleName
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sampleName, suf)
		if base == sampleName {
			continue
		}
		switch e.Types[base] {
		case "histogram", "summary":
			return base
		}
	}
	return sampleName
}

// Value returns the value of the sample with the given name whose
// labels include all of kv ("key", "value" pairs), and whether one
// exists. The scripted E22 operator reads drive health this way.
func (e *Exposition) Value(name string, kv ...string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

func validNameStart(b byte) bool {
	return b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func validNameChar(b byte) bool {
	return validNameStart(b) || (b >= '0' && b <= '9')
}

func validName(s string) bool {
	if s == "" || !validNameStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !validNameChar(s[i]) {
			return false
		}
	}
	return true
}

// parseExposition parses a text-format scrape without judging it; use
// ValidateExposition for parse + lint in one call.
func parseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, kind := fields[2], fields[3]
				if !validName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
				}
				if _, dup := e.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for family %s", lineNo, name)
				}
				e.Types[name] = kind
			}
			continue // HELP and free comments pass through
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && validNameChar(line[i]) {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name in %q", line)
	}
	if i < len(line) && line[i] == '{' {
		labels, rest, err := parseLabels(line[i:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		line = rest
	} else {
		line = line[i:]
	}
	fields := strings.Fields(line)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want 'value [timestamp]' after name, got %q", strings.TrimSpace(line))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		// An optional timestamp (milliseconds): checked, not kept.
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", tok)
	}
	return v, nil
}

// parseLabels consumes a {k="v",...} block (s starts at '{') and
// returns the labels plus the remainder of the line.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && validNameChar(s[i]) {
			i++
		}
		key := s[start:i]
		if !validName(key) || strings.Contains(key, ":") {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		if i >= len(s) || s[i] != '=' {
			return nil, "", fmt.Errorf("missing '=' after label %q", key)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated value for label %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %q", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val.String()
	}
}

// labelIdentity renders a canonical identity string for duplicate
// detection (sorted keys).
func labelIdentity(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == skip {
			continue
		}
		keys = append(keys, k)
	}
	// insertion sort: label sets are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// validate lints a parsed scrape: every sample must belong to a
// declared family, families must not interleave, series must be
// unique, counters non-negative, histogram buckets cumulative with a
// +Inf bucket equal to _count.
func validate(e *Exposition) error {
	seenFamily := make(map[string]bool)
	seenSeries := make(map[string]bool)
	lastFamily := ""
	for _, s := range e.Samples {
		fam := e.family(s.Name)
		kind, ok := e.Types[fam]
		if !ok {
			return fmt.Errorf("sample %s has no TYPE line", s.Name)
		}
		if fam != lastFamily {
			if seenFamily[fam] {
				return fmt.Errorf("family %s interleaved (samples regrouped after other families)", fam)
			}
			seenFamily[fam] = true
			lastFamily = fam
		}
		id := s.Name + labelIdentity(s.Labels, "")
		if seenSeries[id] {
			return fmt.Errorf("duplicate series %s%s", s.Name, labelIdentity(s.Labels, ""))
		}
		seenSeries[id] = true
		if kind == "counter" && s.Value < 0 {
			return fmt.Errorf("counter %s is negative (%g)", s.Name, s.Value)
		}
		if kind == "histogram" && s.Name == fam {
			return fmt.Errorf("histogram family %s has a bare sample (want _bucket/_sum/_count)", fam)
		}
	}
	// Histogram shape: per series, buckets cumulative in le order,
	// +Inf present and equal to _count.
	type histState struct {
		last    float64
		inf     float64
		hasInf  bool
		count   float64
		hasCnt  bool
		bucketN int
	}
	hists := make(map[string]*histState)
	state := func(fam string, labels map[string]string) *histState {
		key := fam + "|" + labelIdentity(labels, "le")
		h, ok := hists[key]
		if !ok {
			h = &histState{}
			hists[key] = h
		}
		return h
	}
	for _, s := range e.Samples {
		fam := e.family(s.Name)
		if e.Types[fam] != "histogram" {
			continue
		}
		h := state(fam, s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram bucket %s missing le label", s.Name)
			}
			if le == "+Inf" {
				h.inf, h.hasInf = s.Value, true
			} else if h.bucketN > 0 && s.Value < h.last {
				return fmt.Errorf("histogram %s buckets not cumulative at le=%q (%g < %g)", fam, le, s.Value, h.last)
			}
			if le != "+Inf" {
				h.last = s.Value
				h.bucketN++
			}
		case strings.HasSuffix(s.Name, "_count"):
			h.count, h.hasCnt = s.Value, true
		}
	}
	for key, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram series %s has no +Inf bucket", key)
		}
		if h.hasCnt && h.inf != h.count {
			return fmt.Errorf("histogram series %s: +Inf bucket %g != _count %g", key, h.inf, h.count)
		}
	}
	return nil
}

// ValidateExposition parses and lints a scrape in one call.
func ValidateExposition(r io.Reader) (*Exposition, error) {
	e, err := parseExposition(r)
	if err != nil {
		return nil, err
	}
	if err := validate(e); err != nil {
		return e, err
	}
	return e, nil
}

// CheckMonotone compares two scrapes of the same target and reports
// the first counter series that went backwards — the cross-scrape half
// of "monotone counters" a single scrape cannot prove.
func CheckMonotone(prev, cur *Exposition) error {
	prevVals := make(map[string]float64)
	for _, s := range prev.Samples {
		if prev.Types[prev.family(s.Name)] == "counter" {
			prevVals[s.Name+labelIdentity(s.Labels, "")] = s.Value
		}
	}
	for _, s := range cur.Samples {
		if cur.Types[cur.family(s.Name)] != "counter" {
			continue
		}
		id := s.Name + labelIdentity(s.Labels, "")
		if pv, ok := prevVals[id]; ok && s.Value < pv {
			return fmt.Errorf("counter %s%s went backwards: %g -> %g",
				s.Name, labelIdentity(s.Labels, ""), pv, s.Value)
		}
	}
	return nil
}
