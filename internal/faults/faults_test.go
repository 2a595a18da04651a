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
	r := New(clock)
	comp := DriveComponent("drive03")
	if r.Down(comp) {
		t.Fatal("component down before any event")
	}
	r.Apply(Event{Component: comp, Kind: KindFail})
	if !r.Down(comp) || r.capacity(comp) != 0 {
		t.Error("fail event not reflected")
	}
	r.Apply(Event{Component: comp, Kind: KindRepair})
	if r.Down(comp) || r.capacity(comp) != 1 {
		t.Error("repair event not reflected")
	}
	r.Apply(Event{Component: "link:trunk", Kind: KindDegrade, Param: 0.25})
	if got := r.capacity("link:trunk"); got != 0.25 {
		t.Errorf("Capacity = %v, want 0.25", got)
	}
	r.Apply(Event{Component: "link:trunk", Kind: KindDegrade, Param: 1})
	if got := r.capacity("link:trunk"); got != 1 {
		t.Errorf("Capacity after restore = %v, want 1", got)
	}
	if len(r.Log()) != 4 {
		t.Errorf("log has %d events, want 4", len(r.Log()))
	}
}

func TestScheduleFiresAtVirtualTime(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
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
	r := New(clock)
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
	if r.downCount() != 2 {
		t.Errorf("downCount = %d, want 2", r.downCount())
	}
}

func TestComponentStatusSingleMechanism(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
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

func TestKindNamesAreDistinct(t *testing.T) {
	// Every defined kind must render a distinct canonical name; probing
	// kinds well past the last defined one catches a new constant added
	// without a name (which would render as the Kind(N) fallback).
	seen := map[string]bool{}
	for n := 0; n < 16; n++ {
		s := Kind(n).String()
		if strings.HasPrefix(s, "Kind(") {
			continue
		}
		if seen[s] {
			t.Errorf("Kind(%d) repeats the name %q", n, s)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Errorf("found %d named kinds, want 4 (fail/repair/degrade/corrupt)", len(seen))
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
	ev = Event{Component: TSMComponent(""), Kind: KindFail}
	if s := ev.String(); strings.Contains(s, "%!") {
		t.Errorf("fail event misprints: %q", s)
	}
}

func TestCorruptIsSilent(t *testing.T) {
	clock := simtime.NewClock()
	r := New(clock)
	comp := VolumeComponent("VOL0007")
	var seen []Event
	r.OnApply(func(ev Event) { seen = append(seen, ev) })
	r.Apply(Event{Component: comp, Kind: KindCorrupt, Param: 0.5})
	if r.Down(comp) || r.capacity(comp) != 1 {
		t.Error("corruption must not take the component out of service")
	}
	if len(seen) != 1 || seen[0].Kind != KindCorrupt {
		t.Fatalf("subscribers not notified of corruption: %v", seen)
	}
	if n := len(r.Log()); n != 1 {
		t.Errorf("corruption missing from log: %d entries", n)
	}
}

// capacity reports the component's retained capacity fraction: 1 when
// healthy, 0 when failed, the degradation factor in between.
func (r *Registry) capacity(component string) float64 {
	if r.down[component] {
		return 0
	}
	if f, ok := r.degraded[component]; ok {
		return f
	}
	return 1
}

// downCount reports how many components are currently failed.
func (r *Registry) downCount() int {
	n := 0
	for _, d := range r.down {
		if d {
			n++
		}
	}
	return n
}
