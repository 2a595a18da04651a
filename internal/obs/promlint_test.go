package obs

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *Exposition {
	t.Helper()
	e, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return e
}

func TestParseExposition(t *testing.T) {
	e := mustParse(t, `# archsim registry snapshot at 1s virtual
# TYPE pftool_copied_bytes_total counter
pftool_copied_bytes_total{pool="fast"} 1.5e+09 1000
# TYPE tape_drive_down gauge
tape_drive_down{drive="drive00"} 0
tape_drive_down{drive="drive01"} 1
`)
	if e.Types["pftool_copied_bytes_total"] != "counter" {
		t.Fatalf("types: %v", e.Types)
	}
	if len(e.Samples) != 3 {
		t.Fatalf("samples: %d", len(e.Samples))
	}
	if v, ok := e.Value("tape_drive_down", "drive", "drive01"); !ok || v != 1 {
		t.Fatalf("Value lookup: %v %v", v, ok)
	}
	s := e.Samples[0]
	if !s.HasTS || s.TS != 1000 || s.Value != 1.5e9 || s.Labels["pool"] != "fast" {
		t.Fatalf("sample 0: %+v", s)
	}
}

func TestParseLabelEscaping(t *testing.T) {
	e := mustParse(t, `# TYPE f gauge
f{path="a\\b\"c\nd"} 1
`)
	want := "a\\b\"c\nd"
	if got := e.Samples[0].Labels["path"]; got != want {
		t.Fatalf("unescaped label = %q, want %q", got, want)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of the error ("" = parse error expected)
	}{
		{"no type line", "f 1\n", "no TYPE line"},
		{"negative counter", "# TYPE f counter\nf -1\n", "negative"},
		{"duplicate series", "# TYPE f gauge\nf{a=\"1\"} 1\nf{a=\"1\"} 2\n", "duplicate series"},
		{"interleaved families", "# TYPE f gauge\n# TYPE g gauge\nf 1\ng 1\nf 2\n", "interleaved"},
		{"bad escape", "# TYPE f gauge\nf{a=\"\\x\"} 1\n", ""},
		{"unterminated labels", "# TYPE f gauge\nf{a=\"1\" 1\n", ""},
		{"duplicate type", "# TYPE f gauge\n# TYPE f counter\nf 1\n", ""},
		{"bad name", "# TYPE 9f gauge\n", ""},
		{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"histogram not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "cumulative"},
		{"inf count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n", "_count"},
	}
	for _, tc := range cases {
		_, err := ValidateExposition(strings.NewReader(tc.text))
		if err == nil {
			t.Fatalf("%s: validated clean, want error", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	text := `# archsim registry snapshot at 2s virtual
# TYPE archsim_virtual_seconds gauge
archsim_virtual_seconds 2
# TYPE h histogram
h_bucket{le="1e+01"} 2
h_bucket{le="1e+02"} 5
h_bucket{le="+Inf"} 5
h_sum 123.4
h_count 5
# TYPE s summary
s{quantile="0.5"} 10
s{quantile="0.99"} 90
s_sum 100
s_count 7
# TYPE c counter
c{op="read"} 0
c{op="write"} 12
`
	if _, err := ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("well-formed scrape rejected: %v", err)
	}
}

func TestCheckMonotone(t *testing.T) {
	prev := mustParse(t, "# TYPE c counter\nc{x=\"1\"} 5\n")
	curOK := mustParse(t, "# TYPE c counter\nc{x=\"1\"} 7\n")
	curBad := mustParse(t, "# TYPE c counter\nc{x=\"1\"} 3\n")
	if err := CheckMonotone(prev, curOK); err != nil {
		t.Fatalf("monotone pair flagged: %v", err)
	}
	if err := CheckMonotone(prev, curBad); err == nil {
		t.Fatal("regressing counter not flagged")
	}
}
