// Tenant-population generation: the multi-tenant demand model behind
// E21. A real archive center serves a huge registered population of
// which only a heavy-tailed sliver is active on any given day, with a
// diurnal load curve and bursty per-user sessions (a user who shows
// up recalls a flurry of files, not one). The generator produces that
// shape deterministically from a seed: a Zipf activity distribution
// over the population, a cosine diurnal intensity, and
// geometric-sized per-tenant bursts, emitted as a time-sorted request
// stream the scheduler can arbitrate.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sched"
)

// TenantPopulation configures the synthetic user population and its
// arrival process. Zero fields take the defaults noted per field.
type TenantPopulation struct {
	Tenants int   // population size (default 1e6)
	Seed    int64 // generation seed; same seed => identical output

	// Arrival process over [0, Day).
	Day      time.Duration // default 24h
	Requests int           // expected total requests (default 10000)
}

// The population's shape.
const (
	// zipfS is the activity tail exponent: tenant at activity rank r
	// carries weight r^-zipfS. At 1.1 the top 1% of a 1M-user
	// population drives ~80% of requests.
	zipfS = 1.1

	// Class mix, by probability at tenant-assignment time: 25%
	// interactive, 50% batch, the rest scavenger. A tenant keeps one
	// class for life (a user is an interactive analyst, a pipeline, or
	// a background sweep — not all three at once).
	interactiveFrac = 0.25
	batchFrac       = 0.50

	// Diurnal shape: intensity(t) = base * (1 + diurnalAmplitude *
	// cos(2π(t-diurnalPeak)/Day)), peaking mid-afternoon.
	diurnalAmplitude = 0.7
	diurnalPeak      = 14 * time.Hour

	// burstMean is the mean burst size (geometric): one arrival event
	// is a tenant session issuing burstMean requests on average,
	// seconds apart.
	burstMean = 3.0
)

// Request is one tenant demand event.
type Request struct {
	At     time.Duration // arrival offset within the day
	Tenant int           // tenant index (0-based)
	Class  sched.Class
}

// TenantName renders a stable tenant label for scheduler tagging.
func TenantName(idx int) string { return fmt.Sprintf("tenant-%07d", idx) }

func (p TenantPopulation) withDefaults() TenantPopulation {
	if p.Tenants <= 0 {
		p.Tenants = 1_000_000
	}
	if p.Day <= 0 {
		p.Day = 24 * time.Hour
	}
	if p.Requests <= 0 {
		p.Requests = 10_000
	}
	return p
}

// classOf deterministically assigns a tenant its QoS class from the
// class mix: a splitmix of (seed, tenant index) so the class is a
// property of the tenant, independent of how many requests are drawn.
func (p TenantPopulation) classOf(tenant int) sched.Class {
	u := float64(splitmix(uint64(p.Seed)^uint64(tenant)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	switch {
	case u < interactiveFrac:
		return sched.Interactive
	case u < interactiveFrac+batchFrac:
		return sched.Batch
	default:
		return sched.Scavenger
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GenerateRequests draws the request stream: deterministic for a
// given config, sorted by arrival time (ties by burst then order of
// generation, so the ordering itself is reproducible).
func (p TenantPopulation) GenerateRequests() []Request {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	// Activity weights: cumulative Zipf over ranks 1..N. Tenant index
	// IS the rank (index 0 = heaviest user); callers who want
	// anonymized IDs can permute the names, the distribution is what
	// matters.
	cum := make([]float64, p.Tenants)
	total := 0.0
	for i := 0; i < p.Tenants; i++ {
		total += math.Pow(float64(i+1), -zipfS)
		cum[i] = total
	}

	// Burst (session) events: expected Requests/burstMean of them,
	// each placed by inverse-CDF sampling of the diurnal intensity.
	nBursts := int(math.Round(float64(p.Requests) / burstMean))
	if nBursts < 1 {
		nBursts = 1
	}
	geomP := 1 / burstMean // geometric success prob, mean 1/p
	out := make([]Request, 0, p.Requests)
	for range nBursts {
		at := p.diurnalInvCDF(rng.Float64())
		tenant := sort.SearchFloat64s(cum, rng.Float64()*total)
		class := p.classOf(tenant)
		size := 1
		for rng.Float64() > geomP && size < 1000 {
			size++
		}
		t := at
		for k := 0; k < size; k++ {
			if k > 0 {
				// In-session spacing: a few seconds between requests.
				t += time.Duration((1 + rng.ExpFloat64()*4) * float64(time.Second))
				if t >= p.Day {
					break
				}
			}
			out = append(out, Request{At: t, Tenant: tenant, Class: class})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// diurnalInvCDF maps u in [0,1) to an arrival time with density
// proportional to 1 + A*cos(2π(t-diurnalPeak)/Day), by bisection on
// the closed-form CDF (deterministic, ~50 iterations).
func (p TenantPopulation) diurnalInvCDF(u float64) time.Duration {
	day := p.Day.Seconds()
	peak := diurnalPeak.Seconds()
	cdf := func(t float64) float64 {
		// ∫0..t (1 + A·cos(2π(x-peak)/day)) dx / day
		w := 2 * math.Pi / day
		return (t + diurnalAmplitude/w*(math.Sin(w*(t-peak))-math.Sin(w*(-peak)))) / day
	}
	lo, hi := 0.0, day
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return time.Duration(lo * float64(time.Second))
}

// ActivityShare reports the fraction of requests carried by the top
// `frac` most-active tenants — the heavy-tail headline number.
func ActivityShare(reqs []Request, population int, frac float64) float64 {
	if len(reqs) == 0 {
		return 0
	}
	counts := make(map[int]int)
	for _, r := range reqs {
		counts[r.Tenant]++
	}
	top := int(float64(population) * frac)
	n := 0
	for tenant, c := range counts {
		if tenant < top { // tenant index is the activity rank
			n += c
		}
	}
	return float64(n) / float64(len(reqs))
}
