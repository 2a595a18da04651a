package fabric

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simtime"
)

// BenchmarkFlowChurn measures the fabric scheduler's join/leave cost:
// 10k flows churning across a shared trunk from 32 concurrent streams,
// every arrival and departure re-running the max-min allocation. The
// headline metric is flows/sec of wall-clock, summed over every
// iteration's run — the rate the paper-scale campaign replay burns
// background-noise bursts at.
func BenchmarkFlowChurn(b *testing.B) {
	const (
		streams  = 32
		flows    = 10_000
		perFlow  = int64(64e6)
		capacity = 1e9
	)
	var wall float64
	for i := 0; i < b.N; i++ {
		clock := simtime.NewClock()
		fab := New(clock)
		fab.AddLink("trunk", capacity, "a", "b")
		// Spread each stream over a private NIC so the allocation has
		// multi-link structure, with the trunk as the shared bottleneck.
		for s := 0; s < streams; s++ {
			fab.AddLink(fmt.Sprintf("nic%d", s), capacity/4, "b", fmt.Sprintf("n%d", s))
			p, err := fab.Route("a", "", fmt.Sprintf("n%d", s))
			if err != nil {
				b.Fatal(err)
			}
			clock.Go(func() {
				for j := 0; j < flows/streams; j++ {
					fab.Transfer(p, perFlow)
				}
			})
		}
		start := time.Now()
		clock.RunFor()
		wall += time.Since(start).Seconds()
	}
	b.ReportMetric(float64(flows*b.N)/wall, "flows/sec")
}
