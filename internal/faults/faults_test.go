package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestApplyAndStatus(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 1)
	comp := DriveComponent("drive03")
	if r.Down(comp) {
		t.Fatal("component down before any event")
	}
	r.Apply(Event{Component: comp, Kind: KindFail})
	if !r.Down(comp) || r.Capacity(comp) != 0 {
		t.Error("fail event not reflected")
	}
	r.Apply(Event{Component: comp, Kind: KindRepair})
	if r.Down(comp) || r.Capacity(comp) != 1 {
		t.Error("repair event not reflected")
	}
	r.Apply(Event{Component: "link:trunk", Kind: KindDegrade, Param: 0.25})
	if got := r.Capacity("link:trunk"); got != 0.25 {
		t.Errorf("Capacity = %v, want 0.25", got)
	}
	r.Apply(Event{Component: "link:trunk", Kind: KindDegrade, Param: 1})
	if got := r.Capacity("link:trunk"); got != 1 {
		t.Errorf("Capacity after restore = %v, want 1", got)
	}
	if len(r.Log()) != 4 {
		t.Errorf("log has %d events, want 4", len(r.Log()))
	}
}

func TestScheduleFiresAtVirtualTime(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 1)
	comp := NodeComponent("fta02")
	r.Window(comp, 10*time.Minute, 5*time.Minute)
	var atFail, atRepair simtime.Duration
	clock.Go(func() {
		clock.Sleep(10*time.Minute + time.Second)
		if !r.Down(comp) {
			t.Error("node should be down inside the crash window")
		}
		atFail = clock.Now()
		clock.Sleep(5 * time.Minute)
		if r.Down(comp) {
			t.Error("node should have rebooted")
		}
		atRepair = clock.Now()
	})
	clock.RunFor()
	if atFail == 0 || atRepair == 0 {
		t.Fatal("observer never ran")
	}
}

func TestOnApplySubscribers(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 1)
	var seen []Event
	r.OnApply(func(ev Event) { seen = append(seen, ev) })
	r.FailAt(DriveComponent("drive00"), time.Minute)
	r.FailAt(DriveComponent("drive01"), 2*time.Minute)
	clock.RunFor()
	if len(seen) != 2 {
		t.Fatalf("subscriber saw %d events, want 2", len(seen))
	}
	if seen[0].Component != "drive:drive00" || seen[1].Component != "drive:drive01" {
		t.Errorf("events out of order: %v", seen)
	}
	if seen[0].At != time.Minute {
		t.Errorf("event stamped %v, want 1m", seen[0].At)
	}
	if r.DownCount() != 2 {
		t.Errorf("DownCount = %d, want 2", r.DownCount())
	}
}

func TestGenerateScheduleDeterministic(t *testing.T) {
	profile := Profile{
		Horizon:       time.Hour,
		DriveFailures: 3,
		Drives:        []string{"d0", "d1", "d2", "d3"},
		NodeCrashes:   2,
		Nodes:         []string{"n0", "n1"},
		LinkDegrades:  1,
		Links:         []string{"trunk"},
	}
	a := New(simtime.NewClock(), 42).GenerateSchedule(profile)
	b := New(simtime.NewClock(), 42).GenerateSchedule(profile)
	c := New(simtime.NewClock(), 43).GenerateSchedule(profile)
	if len(a) != 3+2*2+1*2 {
		t.Fatalf("schedule has %d events, want 9", len(a))
	}
	if len(a) != len(b) {
		t.Fatal("same seed produced different schedule lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Different seeds virtually never coincide; treat equality as failure.
	differs := len(a) != len(c)
	for i := 0; !differs && i < len(a); i++ {
		differs = a[i] != c[i]
	}
	if !differs {
		t.Error("different seeds produced identical schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatal("schedule not sorted by time")
		}
	}
}

func TestGenerateScheduleSiteKills(t *testing.T) {
	profile := Profile{
		Horizon:       time.Hour,
		SiteKills:     2,
		Sites:         []string{"east", "west"},
		SiteOutageLen: 20 * time.Minute,
	}
	evs := New(simtime.NewClock(), 7).GenerateSchedule(profile)
	if len(evs) != 4 {
		t.Fatalf("schedule has %d events, want 2 fail+repair pairs", len(evs))
	}
	var fails, repairs []Event
	for _, ev := range evs {
		if ev.Component != SiteComponent("east") && ev.Component != SiteComponent("west") {
			t.Fatalf("unexpected component %q", ev.Component)
		}
		switch ev.Kind {
		case KindFail:
			fails = append(fails, ev)
		case KindRepair:
			repairs = append(repairs, ev)
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
	if len(fails) != 2 || len(repairs) != 2 {
		t.Fatalf("want 2 fails and 2 repairs, got %d and %d", len(fails), len(repairs))
	}
	// Every fail is closed by a repair on the same site exactly one
	// outage length later.
	for _, f := range fails {
		closed := false
		for _, r := range repairs {
			if r.Component == f.Component && r.At == f.At+profile.SiteOutageLen {
				closed = true
			}
		}
		if !closed {
			t.Errorf("fail of %s at %v has no matching repair window", f.Component, f.At)
		}
	}
	if SiteComponent("east") != "site:east" {
		t.Errorf("SiteComponent = %q", SiteComponent("east"))
	}
}

func TestComponentStatusSingleMechanism(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 1)
	st := r.ComponentStatus(SiteComponent("east"))
	st.SetDown(true)
	if !st.Down() || !r.Down("site:east") {
		t.Error("status handle and registry disagree")
	}
	st.SetDown(false)
	if st.Down() {
		t.Error("repair via status handle lost")
	}
}

func TestBackoffChargesVirtualTime(t *testing.T) {
	clock := simtime.NewClock()
	errTransient := errors.New("transient")
	calls := 0
	var end simtime.Duration
	clock.Go(func() {
		b := Backoff{Attempts: 3, Base: 2 * time.Second, Factor: 2, Max: 30 * time.Second}
		err := b.Do(clock, func(attempt int) error {
			calls++
			if attempt < 3 {
				return errTransient
			}
			return nil
		}, func(err error) bool { return errors.Is(err, errTransient) })
		if err != nil {
			t.Errorf("Do = %v, want nil", err)
		}
		end = clock.Now()
	})
	clock.RunFor()
	if calls != 3 {
		t.Errorf("op ran %d times, want 3", calls)
	}
	if want := 6 * time.Second; end != want { // 2s + 4s
		t.Errorf("backoff charged %v of virtual time, want %v", end, want)
	}
}

func TestBackoffBudgetAndNonRetryable(t *testing.T) {
	clock := simtime.NewClock()
	errTransient := errors.New("transient")
	errFatal := errors.New("fatal")
	clock.Go(func() {
		calls := 0
		b := Backoff{Attempts: 4, Base: time.Second, Factor: 2, Max: time.Minute}
		err := b.Do(clock, func(int) error { calls++; return errTransient },
			func(err error) bool { return errors.Is(err, errTransient) })
		if !errors.Is(err, errTransient) || calls != 4 {
			t.Errorf("budget: err=%v calls=%d, want transient/4", err, calls)
		}
		calls = 0
		err = b.Do(clock, func(int) error { calls++; return errFatal },
			func(err error) bool { return errors.Is(err, errTransient) })
		if !errors.Is(err, errFatal) || calls != 1 {
			t.Errorf("non-retryable: err=%v calls=%d, want fatal/1", err, calls)
		}
	})
	clock.RunFor()
}

func TestBackoffMaxDelayCap(t *testing.T) {
	clock := simtime.NewClock()
	errT := errors.New("t")
	var end simtime.Duration
	clock.Go(func() {
		b := Backoff{Attempts: 5, Base: 10 * time.Second, Factor: 10, Max: 20 * time.Second}
		_ = b.Do(clock, func(int) error { return errT }, func(error) bool { return true })
		end = clock.Now()
	})
	clock.RunFor()
	if want := 10*time.Second + 3*20*time.Second; end != want {
		t.Errorf("capped backoff charged %v, want %v", end, want)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	// Every defined kind must render a canonical name and parse back to
	// itself; probing kinds well past the last defined one catches a
	// new constant added without a name (which would render as the
	// Kind(N) fallback and fail the round trip).
	defined := 0
	for n := 0; n < 16; n++ {
		k := Kind(n)
		s := k.String()
		back, ok := KindFromString(s)
		if strings.HasPrefix(s, "Kind(") {
			if ok {
				t.Errorf("undefined %v parses back as %v", k, back)
			}
			continue
		}
		defined++
		if !ok || back != k {
			t.Errorf("Kind(%d) %q does not round-trip (got %v, ok=%v)", n, s, back, ok)
		}
	}
	if defined != 4 {
		t.Errorf("found %d named kinds, want 4 (fail/repair/degrade/corrupt)", defined)
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Error("KindFromString accepted garbage")
	}
}

func TestEventStringRendersParams(t *testing.T) {
	ev := Event{At: time.Minute, Component: LinkComponent("trunk"), Kind: KindDegrade, Param: 0.5}
	if s := ev.String(); !strings.Contains(s, "x0.50") {
		t.Errorf("degrade event drops its param: %q", s)
	}
	ev = Event{At: time.Minute, Component: VolumeComponent("VOL0001"), Kind: KindCorrupt, Param: 0.375}
	if s := ev.String(); !strings.Contains(s, "corrupt") || !strings.Contains(s, "@0.375") {
		t.Errorf("corrupt event misprints: %q", s)
	}
	ev = Event{Component: TSMComponent, Kind: KindFail}
	if s := ev.String(); strings.Contains(s, "%!") {
		t.Errorf("fail event misprints: %q", s)
	}
}

func TestCorruptIsSilent(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 1)
	comp := VolumeComponent("VOL0007")
	var seen []Event
	r.OnApply(func(ev Event) { seen = append(seen, ev) })
	r.Apply(Event{Component: comp, Kind: KindCorrupt, Param: 0.5})
	if r.Down(comp) || r.Capacity(comp) != 1 {
		t.Error("corruption must not take the component out of service")
	}
	if len(seen) != 1 || seen[0].Kind != KindCorrupt {
		t.Fatalf("subscribers not notified of corruption: %v", seen)
	}
	if n := len(r.Log()); n != 1 {
		t.Errorf("corruption missing from log: %d entries", n)
	}
}

func TestGenerateScheduleCorruptions(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock, 42)
	p := Profile{
		Horizon:      time.Hour,
		Volumes:      []string{"VOL0001", "VOL0002"},
		Links:        []string{"trunk", "san0"},
		MediaRots:    3,
		LinkCorrupts: 2,
	}
	evs := r.GenerateSchedule(p)
	rots, taints := 0, 0
	for _, ev := range evs {
		if ev.Kind != KindCorrupt {
			t.Errorf("unexpected kind in corruption-only profile: %v", ev)
			continue
		}
		switch {
		case strings.HasPrefix(ev.Component, "volume:"):
			rots++
			if ev.Param < 0 || ev.Param >= 1 {
				t.Errorf("media rot param out of [0,1): %v", ev)
			}
		case strings.HasPrefix(ev.Component, "link:"):
			taints++
		default:
			t.Errorf("corruption on unexpected component: %v", ev)
		}
	}
	if rots != 3 || taints != 2 {
		t.Errorf("got %d rots and %d link corruptions, want 3 and 2", rots, taints)
	}
	again := New(simtime.NewClock(), 42).GenerateSchedule(p)
	if len(again) != len(evs) {
		t.Fatal("schedule not deterministic")
	}
	for i := range evs {
		if evs[i] != again[i] {
			t.Errorf("event %d differs across same-seed runs: %v vs %v", i, evs[i], again[i])
		}
	}
}
