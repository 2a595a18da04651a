package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of what the simulator has cost the host so
// far: wall clock, process CPU and the allocator's lifetime totals.
type hostSample struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostSample{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// hostDelta is the host cost between two samples.
type hostDelta struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

func (a hostSample) until(b hostSample) hostDelta {
	return hostDelta{
		WallS:      b.at.Sub(a.at).Seconds(),
		CPUS:       (b.cpu - a.cpu).Seconds(),
		Mallocs:    b.mallocs - a.mallocs,
		AllocBytes: b.bytes - a.bytes,
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// gcStats reads the collector's lifetime cycle count and CPU seconds.
func gcStats() (cycles, cpuSeconds float64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuSeconds = s[1].Value.Float64()
	}
	return cycles, cpuSeconds
}

// heapLiveMB forces a collection and reports what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// loadAvg1 reads the 1-minute load average, 0 where unavailable.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
