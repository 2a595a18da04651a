package workload

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

func testPop() TenantPopulation {
	return TenantPopulation{
		Tenants:  200_000,
		Seed:     42,
		Requests: 40_000,
	}
}

func TestTenantRequestsDeterministic(t *testing.T) {
	a := testPop().GenerateRequests()
	b := testPop().GenerateRequests()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different request streams")
	}
	c := TenantPopulation{Tenants: 200_000, Seed: 43, Requests: 40_000}.GenerateRequests()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical request streams")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("stream not time-sorted at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
}

func TestTenantActivityHeavyTailed(t *testing.T) {
	p := testPop()
	reqs := p.GenerateRequests()
	// With zipfS=1.1 over 200k tenants the top 1% of the population
	// carries the large majority of requests (analytically ~75-80%).
	share := ActivityShare(reqs, p.withDefaults().Tenants, 0.01)
	if share < 0.55 || share > 0.95 {
		t.Fatalf("top-1%% activity share = %.3f, want heavy tail in [0.55, 0.95]", share)
	}
	// And the bottom half of the population is nearly silent.
	bottomHalf := 1 - ActivityShare(reqs, p.withDefaults().Tenants, 0.5)
	if bottomHalf > 0.10 {
		t.Fatalf("bottom-50%% carries %.3f of requests, want < 0.10", bottomHalf)
	}
}

func TestTenantArrivalsDiurnal(t *testing.T) {
	p := testPop()
	d := p.withDefaults()
	reqs := p.GenerateRequests()
	if got := len(reqs); math.Abs(float64(got)-float64(d.Requests)) > 0.2*float64(d.Requests) {
		t.Fatalf("generated %d requests, want ~%d", got, d.Requests)
	}
	// Hourly buckets: the peak hour's rate must be ~(1+A)x the mean
	// and the trough ~(1-A)x, within sampling tolerance.
	buckets := make([]float64, 24)
	for _, r := range reqs {
		buckets[int(r.At/time.Hour)%24]++
	}
	mean := float64(len(reqs)) / 24
	peakHour := int(diurnalPeak / time.Hour)
	troughHour := (peakHour + 12) % 24
	if got, want := buckets[peakHour]/mean, 1+diurnalAmplitude; math.Abs(got-want) > 0.25 {
		t.Fatalf("peak-hour intensity %.2fx mean, want ~%.2fx", got, want)
	}
	if got, want := buckets[troughHour]/mean, 1-diurnalAmplitude; math.Abs(got-want) > 0.25 {
		t.Fatalf("trough-hour intensity %.2fx mean, want ~%.2fx", got, want)
	}
	// Mean inter-arrival over the day matches the configured volume.
	interMean := d.Day.Seconds() / float64(len(reqs))
	var gaps float64
	for i := 1; i < len(reqs); i++ {
		gaps += (reqs[i].At - reqs[i-1].At).Seconds()
	}
	empirical := gaps / float64(len(reqs)-1)
	if math.Abs(empirical-interMean) > 0.2*interMean {
		t.Fatalf("mean inter-arrival %.3fs, want ~%.3fs", empirical, interMean)
	}
}

func TestTenantArrivalsBursty(t *testing.T) {
	p := testPop()
	reqs := p.GenerateRequests()
	// Burst sizes are geometric with the configured mean over a fixed
	// Requests/burstMean bursts: requests per burst is the empirical
	// mean (truncation at day-end shaves a little, hence the tolerance).
	bursts := math.Max(1, math.Round(float64(p.withDefaults().Requests)/burstMean))
	got := float64(len(reqs)) / bursts
	if math.Abs(got-burstMean) > 0.25*burstMean {
		t.Fatalf("mean burst size %.2f, want ~%.1f", got, burstMean)
	}
	// A burst shares one tenant: check per-minute arrival counts are
	// overdispersed relative to Poisson (variance/mean > 1.5).
	perMin := make(map[int]float64)
	for _, r := range reqs {
		perMin[int(r.At/time.Minute)]++
	}
	var m, v float64
	n := 24 * 60.0
	for _, c := range perMin {
		m += c
	}
	m /= n
	for i := 0; i < int(n); i++ {
		v += (perMin[i] - m) * (perMin[i] - m)
	}
	v /= n
	if v/m < 1.5 {
		t.Fatalf("per-minute variance/mean = %.2f, want > 1.5 (bursty)", v/m)
	}
}

func TestTenantClassMixAndStability(t *testing.T) {
	p := testPop()
	counts := map[sched.Class]int{}
	n := 50_000
	for i := 0; i < n; i++ {
		c := p.classOf(i)
		if c2 := p.classOf(i); c2 != c {
			t.Fatalf("tenant %d class not stable: %v then %v", i, c, c2)
		}
		counts[c]++
	}
	fi := float64(counts[sched.Interactive]) / float64(n)
	fb := float64(counts[sched.Batch]) / float64(n)
	fs := float64(counts[sched.Scavenger]) / float64(n)
	if math.Abs(fi-interactiveFrac) > 0.02 || math.Abs(fb-batchFrac) > 0.02 {
		t.Fatalf("class mix interactive=%.3f batch=%.3f scavenger=%.3f, want %.2f/%.2f/%.2f",
			fi, fb, fs, interactiveFrac, batchFrac, 1-interactiveFrac-batchFrac)
	}
}
