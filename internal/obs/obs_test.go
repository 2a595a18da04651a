package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// liveSim builds a paced simulation with a steady trickle of counter
// bumps, spans and events, serves it, and returns everything a test
// needs. The caller must call done() to wait for run completion.
func liveSim(t *testing.T, pace float64, virtualSpan time.Duration) (*Server, *simtime.Clock, *faults.Registry, func()) {
	t.Helper()
	clock := simtime.NewClock()
	if pace > 0 {
		clock.SetPace(pace)
	}
	tel := telemetry.Of(clock)
	reg := faults.New(clock)
	clock.Go(func() {
		ctr := tel.Counter("obstest_ticks_total")
		for clock.Now() < virtualSpan {
			sp := tel.StartSpan("obstest.tick", "n", fmt.Sprint(int(ctr.Value())))
			clock.Sleep(virtualSpan / 50)
			ctr.Inc()
			tel.Event("obstest.beat", "component", "ticker")
			sp.End()
		}
	})
	srv := New(clock, Actions{Faults: reg})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		clock.RunFor()
		srv.Settle()
	}()
	t.Cleanup(func() { srv.Close() })
	// done waits for the run to finish and the gate to settle; the
	// server keeps serving (settled) until test cleanup.
	done := func() { <-ran }
	return srv, clock, reg, done
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func post(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestServeLiveScrape: /metrics scraped mid-run parses under the
// validator, carries virtual time, and the settled scrape equals the
// post-hoc Snapshot().Text() byte for byte.
func TestServeLiveScrape(t *testing.T) {
	srv, clock, _, done := liveSim(t, 4.0, time.Second) // ~250ms real
	mid := get(t, srv.url+"/metrics")
	e, err := ValidateExposition(strings.NewReader(mid))
	if err != nil {
		t.Fatalf("mid-run scrape invalid: %v", err)
	}
	if v, ok := e.Value(telemetry.VirtualSecondsFamily); !ok || v < 0 || v > 1 {
		t.Fatalf("virtual seconds = %v ok=%v, want within [0,1]", v, ok)
	}
	if _, ok := e.Value("obstest_ticks_total"); !ok {
		t.Fatal("mid-run scrape missing the ticking counter")
	}

	// Monotone counters across scrapes.
	mid2 := get(t, srv.url+"/metrics")
	e2, err := ValidateExposition(strings.NewReader(mid2))
	if err != nil {
		t.Fatalf("second scrape invalid: %v", err)
	}
	if err := CheckMonotone(e, e2); err != nil {
		t.Fatalf("counters regressed between scrapes: %v", err)
	}

	done()
	final := get(t, srv.url+"/metrics")
	var want string
	srv.Gate().Do(func() { want = telemetry.Of(clock).Snapshot().Text() })
	if final != want {
		t.Fatalf("settled scrape differs from Snapshot().Text():\nscrape %d bytes, text %d bytes", len(final), len(want))
	}
	// Timestamped form also parses.
	if _, err := ValidateExposition(strings.NewReader(get(t, srv.url+"/metrics?ts=1"))); err != nil {
		t.Fatalf("timestamped scrape invalid: %v", err)
	}
}

// TestSnapshotDiffCursor: /snapshot?since_ns filters out points not
// updated since the cursor while keeping func-collected series.
func TestSnapshotDiffCursor(t *testing.T) {
	srv, _, _, done := liveSim(t, 0, 100*time.Millisecond)
	done()

	var full snapshotJSON
	if err := json.Unmarshal([]byte(get(t, srv.url+"/snapshot")), &full); err != nil {
		t.Fatal(err)
	}
	if full.Schema != snapshotSchema || len(full.Points) == 0 {
		t.Fatalf("full snapshot: schema %q, %d points", full.Schema, len(full.Points))
	}
	// A cursor at the end excludes the tick counter (last updated
	// before the final instant).
	var diff snapshotJSON
	url := fmt.Sprintf("%s/snapshot?since_ns=%d", srv.url, full.CursorNs)
	if err := json.Unmarshal([]byte(get(t, url)), &diff); err != nil {
		t.Fatal(err)
	}
	for _, p := range diff.Points {
		if p.Name == "obstest_ticks_total" {
			t.Fatalf("stale point survived the cursor: %+v", p)
		}
	}
	if len(diff.Points) >= len(full.Points) {
		t.Fatalf("diff form no smaller: %d vs %d points", len(diff.Points), len(full.Points))
	}
}

// TestOpsDrainDrive: the control surface applies a fault-registry
// event in simulation context and telemetry records the operator move.
func TestOpsDrainDrive(t *testing.T) {
	srv, clock, reg, done := liveSim(t, 2.0, 200*time.Millisecond)
	var mu sync.Mutex
	var applied []faults.Event
	reg.OnApply(func(ev faults.Event) {
		mu.Lock()
		applied = append(applied, ev)
		mu.Unlock()
	})

	body := post(t, srv.url+"/ops/drain-drive?drive=drive03")
	var res opResult
	if err := json.Unmarshal([]byte(body), &res); err != nil || !res.OK {
		t.Fatalf("drain reply: %s (%v)", body, err)
	}
	done()

	mu.Lock()
	defer mu.Unlock()
	if len(applied) != 1 || applied[0].Component != "drive:drive03" || applied[0].Kind != faults.KindFail {
		t.Fatalf("applied events: %+v", applied)
	}
	var dump *telemetry.FlightDump
	srv.Gate().Do(func() { dump = telemetry.Of(clock).FlightDump() })
	found := false
	for _, ev := range dump.Events {
		if ev.Name == "ops" && ev.Attr("action") == "drain-drive" && ev.Attr("target") == "drive03" {
			found = true
		}
	}
	if !found {
		t.Fatal("operator action not in the flight recorder")
	}
}

// TestEventStreamFollow: /events streams NDJSON records live and ends
// when the run settles.
func TestEventStreamFollow(t *testing.T) {
	srv, _, _, done := liveSim(t, 4.0, 400*time.Millisecond) // ~100ms real
	resp, err := http.Get(srv.url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var beats int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if rec.Type == "event" && rec.Event.Name == "obstest.beat" {
			beats++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if beats < 50 {
		t.Fatalf("streamed %d beats, want all 50", beats)
	}
	done()
}

// TestSpanStreamAndDump: /spans?follow=0 returns the flight dump;
// the follow form announces opens and closes.
func TestSpanStreamAndDump(t *testing.T) {
	srv, _, _, done := liveSim(t, 0, 50*time.Millisecond)
	done()

	var dump telemetry.FlightDump
	if err := json.Unmarshal([]byte(get(t, srv.url+"/spans?follow=0")), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != "archsim-flight/v1" || len(dump.Spans) == 0 {
		t.Fatalf("span dump: schema %q, %d spans", dump.Schema, len(dump.Spans))
	}

	// Follow on a settled server: one drain pass, then EOF.
	resp, err := http.Get(srv.url + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var closed int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "span" && rec.Span.Status == telemetry.StatusOK {
			closed++
		}
	}
	if closed == 0 {
		t.Fatal("no closed spans streamed")
	}
}

// TestGateConcurrentSnapshot hammers the gate with concurrent
// snapshots (and FlightSince reads) from several goroutines while the
// simulation mutates every series — the -race proof that the gate
// serializes HTTP reads against actor writes, live and settled.
func TestGateConcurrentSnapshot(t *testing.T) {
	clock := simtime.NewClock()
	clock.SetPace(500 * float64(time.Millisecond) / float64(time.Second) * 10) // mild throttle so readers overlap the run
	tel := telemetry.Of(clock)
	clock.Go(func() {
		ctr := tel.Counter("gate_race_total")
		for i := 0; i < 2000; i++ {
			ctr.Inc()
			sp := tel.StartSpan("gate.race")
			clock.Sleep(time.Millisecond)
			sp.End()
		}
	})
	gate := newGate(clock)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				gate.Do(func() {
					snap := tel.Snapshot()
					_ = snap.Total("gate_race_total")
					tail := tel.FlightSince(cursor)
					cursor = tail.Cursor
				})
			}
		}()
	}
	clock.RunFor()
	gate.settle()
	// Settled reads race only each other now; let them spin once more.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	var total float64
	gate.Do(func() { total = tel.Snapshot().Total("gate_race_total") })
	if total != 2000 {
		t.Fatalf("final counter %v, want 2000", total)
	}
}
