package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestCounterBasics(t *testing.T) {
	r := New(simtime.NewClock())
	c := r.Counter("bytes_total", "op", "pfcp")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Value = %v, want 42", c.Value())
	}
	// Same (name, labels) identity returns the same series, regardless
	// of kv order.
	if got := r.Counter("bytes_total", "op", "pfcp").Value(); got != 42 {
		t.Errorf("re-lookup Value = %v, want 42", got)
	}
	if got := r.Snapshot().Value("bytes_total", "op", "pfcp"); got != 42 {
		t.Errorf("snapshot Value = %v, want 42", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	r := New(simtime.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("negative counter delta did not panic")
		}
	}()
	r.Counter("c").Add(-1)
}

func TestKindConflictPanics(t *testing.T) {
	r := New(simtime.NewClock())
	r.Counter("depth")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter family as a gauge did not panic")
		}
	}()
	r.Gauge("depth")
}

func TestOddLabelListPanics(t *testing.T) {
	r := New(simtime.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("odd kv list did not panic")
		}
	}()
	r.Counter("c", "key-without-value")
}

func TestGauge(t *testing.T) {
	r := New(simtime.NewClock())
	g := r.Gauge("queue_depth", "queue", "copy")
	g.Set(7)
	g.Add(-3)
	if g.m.val != 4 {
		t.Errorf("Value = %v, want 4", g.m.val)
	}
}

func TestFuncMetricsResolveAtSnapshotTime(t *testing.T) {
	r := New(simtime.NewClock())
	v := 10.0
	r.CounterFunc("link_bytes_total", func() float64 { return v }, "link", "trunk")
	r.GaugeFunc("active_flows", func() float64 { return v / 2 })
	if got := r.Snapshot().Value("link_bytes_total", "link", "trunk"); got != 10 {
		t.Errorf("CounterFunc = %v, want 10", got)
	}
	v = 30
	snap := r.Snapshot()
	if got := snap.Value("link_bytes_total", "link", "trunk"); got != 30 {
		t.Errorf("CounterFunc after change = %v, want 30", got)
	}
	if got := snap.Value("active_flows"); got != 15 {
		t.Errorf("GaugeFunc = %v, want 15", got)
	}
}

// A second collector on one identity is a wiring bug (two libraries
// registering the same drive series) and panics; a plain counter looked
// up twice is the same series, as it always was.
func TestDuplicateCollectorPanics(t *testing.T) {
	for _, register := range []func(r *Registry){
		func(r *Registry) { r.CounterFunc("link_bytes_total", func() float64 { return 1 }, "link", "trunk") },
		func(r *Registry) { r.GaugeFunc("active_flows", func() float64 { return 1 }) },
	} {
		r := New(simtime.NewClock())
		register(r)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("second collector on one identity did not panic")
				}
			}()
			register(r)
		}()
		// A view adds a label, so the same call through it is a new
		// identity, not a duplicate.
		register(r.With("site", "east"))
	}
	r := New(simtime.NewClock())
	r.Counter("stores_total").Inc()
	r.Counter("stores_total").Inc()
	if got := r.Snapshot().Value("stores_total"); got != 2 {
		t.Errorf("duplicate plain counter = %v, want one series at 2", got)
	}
}

// A view's series land in the root's snapshot with the view's labels;
// spans and events stay on the root's one ID sequence and ring.
func TestWithScopesSeries(t *testing.T) {
	r := New(simtime.NewClock())
	if r.With() != r {
		t.Error("With() did not return the receiver")
	}
	east := r.With("site", "east")
	east.Counter("tsm_stores_total").Add(2)
	r.With("site", "west").Counter("tsm_stores_total").Add(3)
	east.GaugeFunc("tsm_objects_live", func() float64 { return 7 })
	east.With("drive", "d0").Counter("mounts_total").Inc()
	r.Counter("tsm_stores_total").Inc()
	snap := r.Snapshot()
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"tsm_stores_total", []string{"site", "east"}, 2},
		{"tsm_stores_total", []string{"site", "west"}, 3},
		{"tsm_stores_total", nil, 1},
		{"tsm_objects_live", []string{"site", "east"}, 7},
		{"mounts_total", []string{"drive", "d0", "site", "east"}, 1},
	} {
		if got := snap.Value(c.name, c.kv...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	if got := len(snap.Points); got != 5 {
		t.Errorf("snapshot holds %d series, want 5", got)
	}
	id := east.Event("fault", "component", "site:east")
	if sp := r.StartSpan("op"); sp.ID != id+1 {
		t.Errorf("root span ID %d after view event %d: not one ID sequence", sp.ID, id)
	}
	if got, ok := r.LastEventFor("site:east"); !ok || got != id {
		t.Errorf("root LastEventFor = %d, %v; want the view's event %d", got, ok, id)
	}
}

func TestHistogramDecades(t *testing.T) {
	r := New(simtime.NewClock())
	h := r.Histogram("file_bytes", "op", "pfcp")
	for _, v := range []float64{5, 50, 55, 500, 0} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 610 {
		t.Errorf("Count=%v Sum=%v, want 5/610", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	pts := snap.Family("file_bytes")
	if len(pts) != 1 {
		t.Fatalf("Family returned %d points, want 1", len(pts))
	}
	b := pts[0].Buckets
	if b[0] != 1 || b[1] != 2 || b[2] != 1 || b[negDecade] != 1 {
		t.Errorf("buckets = %v", b)
	}
}

func TestSnapshotFamilyAndTotal(t *testing.T) {
	r := New(simtime.NewClock())
	r.Counter("drive_mounts_total", "drive", "d0").Add(2)
	r.Counter("drive_mounts_total", "drive", "d1").Add(3)
	snap := r.Snapshot()
	if got := len(snap.Family("drive_mounts_total")); got != 2 {
		t.Errorf("Family size = %d, want 2", got)
	}
	if got := snap.Total("drive_mounts_total"); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
	if got := snap.Value("drive_mounts_total", "drive", "nope"); got != 0 {
		t.Errorf("absent series Value = %v, want 0", got)
	}
}

func TestTextExposition(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	clock.Go(func() {
		r.Counter("bytes_total", "op", "pfcp").Add(1e9)
		g := r.Gauge("ranks_busy")
		g.Set(3)
		h := r.Histogram("file_bytes")
		h.Observe(5)   // decade 0 -> le 1e+01
		h.Observe(500) // decade 2 -> le 1e+03
		clock.Sleep(time.Second)
	})
	clock.RunFor()
	text := r.Snapshot().Text()
	for _, want := range []string{
		"# TYPE bytes_total counter",
		`bytes_total{op="pfcp"} 1000000000`,
		"# TYPE ranks_busy gauge",
		"ranks_busy 3",
		"# TYPE file_bytes histogram",
		`file_bytes_bucket{le="1e+01"} 1`,
		`file_bytes_bucket{le="1e+03"} 2`, // cumulative
		`file_bytes_bucket{le="+Inf"} 2`,
		"file_bytes_sum 505",
		"file_bytes_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestOfSharesOneRegistryPerClock(t *testing.T) {
	clock := simtime.NewClock()
	if Of(clock) != Of(clock) {
		t.Error("Of returned two registries for one clock")
	}
	if Of(clock) == Of(simtime.NewClock()) {
		t.Error("Of shared a registry across clocks")
	}
}

// labelsOf sorts in place by insertion; it must order any label list as
// the sort.Slice it replaced did. Lists are short (call sites pass one
// to three labels, keys distinct — the golden test in
// internal/experiments asserts that over every experiment), where both
// are the same stable algorithm, so duplicates are covered too.
func TestLabelsOfMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	keys := []string{"op", "pool", "component", "drive", "job", "volume", "a", "z"}
	for trial := 0; trial < 2000; trial++ {
		var kv []string
		for i, n := 0, rng.Intn(7); i < n; i++ {
			kv = append(kv, keys[rng.Intn(len(keys))], fmt.Sprint(i))
		}
		want := make([]Label, 0, len(kv)/2)
		for i := 0; i < len(kv); i += 2 {
			want = append(want, Label{Key: kv[i], Value: kv[i+1]})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		if got := labelsOf(kv); !reflect.DeepEqual(got, want) {
			t.Fatalf("labelsOf(%v) = %v, want %v", kv, got, want)
		}
	}
	kv := []string{"op", "read", "drive", "d1", "component", "tape"}
	if n := testing.AllocsPerRun(100, func() { labelsOf(kv) }); n > 1 {
		t.Errorf("labelsOf allocates %v times, want 1 (the result)", n)
	}
}
