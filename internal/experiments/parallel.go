package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/fabric"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E24: the parallel simulation engine study. The paper's plant scales
// by adding movers; this study makes the *simulator* scale by adding
// cores. The full §5.2 campaign (~10M files at the 300k per-job cap)
// is partitioned across four archive sites, each a complete plant on
// its own island (internal/simtime island runtime), coupled only by
// WAN replication manifests whose shipping delay — one replication
// cycle plus the WAN path's latency/quantum bound (fabric
// Path.Lookahead) — is the conservative lookahead that lets islands
// run ahead of each other. The same partitioned plant runs twice: once
// single-threaded (workers=1, the reference mode) and once with one
// worker per core, and the study asserts the engine's determinism
// contract — byte-identical per-job outputs and merged metrics
// snapshots — plus the wall-clock speedup that is the point of the
// exercise.

// parallelSpeedupFloor is the E24 acceptance bound: the 4-island run
// must beat the single-threaded run by at least this factor on a
// machine with 4+ cores. On fewer cores the speedup is still reported
// but not asserted (the engine can't conjure parallelism the host
// doesn't have).
const parallelSpeedupFloor = 2.5

// ParallelParams configures the E24 run.
type ParallelParams struct {
	Seed    int64
	Islands int // archive sites / islands (default 4)
	// Workers is the concurrent-island cap for the measured run (the
	// -islands flag; 0 = one per core, capped at Islands).
	Workers int
	Jobs    int // campaign jobs to partition (0 = the paper's 62)
	// MaxSimFiles caps per-job materialized files (0 = the campaign
	// default 300k).
	MaxSimFiles int

	// NoBaseline skips the workers=1 reference run (and with it the
	// A/B determinism check and speedup measurement).
	NoBaseline bool
}

func (p *ParallelParams) defaults() {
	if p.Islands <= 0 {
		p.Islands = 4
	}
	if p.Workers <= 0 {
		p.Workers = runtime.NumCPU()
	}
	if p.Workers > p.Islands {
		p.Workers = p.Islands
	}
	if p.Jobs <= 0 {
		p.Jobs = 62
	}
}

// ParallelReport is the machine-readable E24 summary, carried as the
// parallel report's Detail.
type ParallelReport struct {
	Islands int   `json:"islands"`
	Workers int   `json:"workers"`
	Cores   int   `json:"cores"`
	Jobs    int   `json:"jobs"`
	Files   int   `json:"files"`
	Bytes   int64 `json:"bytes"`
	Epochs  int   `json:"epochs"`

	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	// Baseline (workers=1) measurements; zero when NoBaseline.
	BaselineWallSeconds float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	Deterministic       bool    `json:"deterministic"`

	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_wall_second"`
	FilesPerSec  float64 `json:"files_per_wall_second"`
	NullMessages uint64  `json:"null_messages"`
	FastForwards uint64  `json:"fast_forwards"`

	ReplicaManifests int     `json:"replica_manifests"`
	ReplicaMB        float64 `json:"replica_mb"`
	LagMeanSeconds   float64 `json:"replication_lag_mean_seconds"`

	PerIsland []ParallelIsland `json:"per_island"`

	// EngineMetricsText is the engine's own registry (advance times,
	// null messages) in exposition format. It is execution metadata —
	// wall clocks and scheduling artifacts — so it lives here, outside
	// the deterministic model snapshot the A/B test byte-compares.
	EngineMetricsText string `json:"engine_metrics_text,omitempty"`
}

// ParallelIsland is one island's share of the run.
type ParallelIsland struct {
	Name           string  `json:"name"`
	Jobs           int     `json:"jobs"`
	Files          int     `json:"files"`
	GB             float64 `json:"gb"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	Advances       uint64  `json:"advances"`
}

// parallelManifest is the cross-island replication message: the
// catalog delta one site ships to its ring successor after a job.
type parallelManifest struct {
	Job    int   `json:"job"`
	Files  int   `json:"files"`
	Bytes  int64 `json:"bytes"`
	SentNs int64 `json:"sent_ns"`
}

const (
	// parallelReplCycle is the replication batching window: a manifest
	// cut at job completion ships on the next cycle. It dominates the
	// channel lookahead and therefore sets the engine's concurrency
	// granularity — islands advance in lock-step windows of this width.
	parallelReplCycle = 30 * time.Minute
	// parallelWANLatency/Rate shape each site's WAN egress link; the
	// path lookahead (latency + minimum manifest quantum at nominal
	// rate) is the physically-derived tail of the channel bound.
	parallelWANLatency = 50 * time.Millisecond
	parallelWANRate    = 100e6
	// parallelManifestEntry approximates one catalog entry's wire size.
	parallelManifestEntry int64 = 256
	// parallelEpochs is the number of quiescent global barriers per run.
	parallelEpochs = 4
)

// parallelSite is one island's world: a full archive plant plus its
// replication endpoints and accumulated results.
type parallelSite struct {
	name    string
	isl     *simtime.Island
	sys     *archive.System
	egress  fabric.Path
	ingress fabric.Path
	out     *simtime.Channel
	jobs    [][]workload.JobSpec // per epoch
	results []archive.JobResult

	manifests *telemetry.Counter
}

// parallelPlant is the partitioned plant: one archive per island,
// coupled by manifest channels rather than by internal/federation.
type parallelPlant struct {
	group *simtime.Group
	sites []*parallelSite
}

// parallelPartition deals jobs to islands greedily by descending byte
// cost (bytes dominate a job's virtual duration, and virtual-time
// balance is what the lock-step engine needs), then splits each
// island's share into epoch chunks of near-equal job count.
func parallelPartition(jobs []workload.JobSpec, islands int) [][][]workload.JobSpec {
	type bin struct {
		cost float64
		jobs []workload.JobSpec
	}
	bins := make([]bin, islands)
	order := append([]workload.JobSpec(nil), jobs...)
	sort.SliceStable(order, func(a, b int) bool {
		// Files add wall cost beyond their bytes; weigh them in so the
		// small-file jobs spread too.
		ca := float64(order[a].TotalBytes) + 2e6*float64(order[a].NumFiles)
		cb := float64(order[b].TotalBytes) + 2e6*float64(order[b].NumFiles)
		return ca > cb
	})
	for _, j := range order {
		best := 0
		for i := 1; i < islands; i++ {
			if bins[i].cost < bins[best].cost {
				best = i
			}
		}
		bins[best].jobs = append(bins[best].jobs, j)
		bins[best].cost += float64(j.TotalBytes) + 2e6*float64(j.NumFiles)
	}
	out := make([][][]workload.JobSpec, islands)
	for i, b := range bins {
		// Keep each island's jobs in campaign order; chunk into epochs.
		sort.SliceStable(b.jobs, func(a, c int) bool { return b.jobs[a].ID < b.jobs[c].ID })
		chunks := make([][]workload.JobSpec, parallelEpochs)
		for k, j := range b.jobs {
			e := k * parallelEpochs / len(b.jobs)
			chunks[e] = append(chunks[e], j)
		}
		out[i] = chunks
	}
	return out
}

// buildParallelPlant assembles the partitioned plant: one archive
// plant per island, ring-coupled i -> (i+1) % n by a WAN manifest
// channel whose lookahead is the replication cycle plus the WAN path's
// fabric-derived bound.
func buildParallelPlant(p ParallelParams) *parallelPlant {
	g := simtime.NewGroup()
	plant := &parallelPlant{group: g}

	cfg := workload.PaperCampaign(p.Seed)
	cfg.Jobs = p.Jobs
	if p.MaxSimFiles != 0 { // negative = uncapped, like CampaignParams
		cfg.MaxSimFiles = p.MaxSimFiles
	}
	parts := parallelPartition(workload.Generate(cfg), p.Islands)

	for i := 0; i < p.Islands; i++ {
		name := fmt.Sprintf("site-%d", i)
		isl := g.AddIsland(name)
		clock := isl.Clock()
		s := &parallelSite{name: name, isl: isl, jobs: parts[i]}
		s.sys = archive.NewDefault(clock)

		f := fabric.Of(clock)
		f.AddLink("wan-out", parallelWANRate, fabric.Compute, "wan:egress").
			SetLatency(simtime.Duration(parallelWANLatency))
		f.AddLink("wan-in", parallelWANRate, fabric.Compute, "wan:ingress").
			SetLatency(simtime.Duration(parallelWANLatency))
		var err error
		if s.egress, err = f.Route(fabric.Compute, "", "wan:egress"); err != nil {
			panic(err)
		}
		if s.ingress, err = f.Route(fabric.Compute, "", "wan:ingress"); err != nil {
			panic(err)
		}

		tel := telemetry.Of(clock)
		s.manifests = tel.Counter("federation_replicas_total")

		plant.sites = append(plant.sites, s)
	}

	if len(plant.sites) == 1 {
		// Degenerate single-site run (Islands: 1): no ring, no
		// replication, just the plain campaign.
		return plant
	}
	for i, s := range plant.sites {
		next := plant.sites[(i+1)%len(plant.sites)]
		// The channel bound: nothing ships before the next replication
		// cycle, and the WAN path adds its latency plus the minimum
		// manifest quantum at nominal rate.
		lookahead := simtime.Duration(parallelReplCycle) + s.egress.Lookahead(parallelManifestEntry)
		s.out = plant.group.Connect(s.isl, next.isl, lookahead, next.receiveManifest)
	}
	return plant
}

// receiveManifest runs inline on the receiving island's scheduler at
// the manifest's arrival instant; it hands the ingest work to an actor
// (inline callbacks must not park).
func (s *parallelSite) receiveManifest(payload interface{}) {
	m := payload.(*parallelManifest)
	clock := s.isl.Clock()
	clock.Go(func() {
		wire := int64(m.Files)*parallelManifestEntry + 512
		s.ingress.Transfer(wire)
		tel := telemetry.Of(clock)
		tel.Counter("federation_replica_bytes_total").Add(float64(m.Bytes))
		tel.Histogram("federation_replication_lag_seconds").
			Observe((clock.Now() - simtime.Duration(m.SentNs)).Seconds())
	})
}

// runEpoch spawns the site's campaign driver for one epoch: run the
// epoch's jobs, ship a manifest per job to the ring successor.
func (s *parallelSite) runEpoch(e int, seed int64) {
	clock := s.isl.Clock()
	clock.Go(func() {
		for _, spec := range s.jobs[e] {
			jr, err := archive.RunJob(s.sys, spec, seed, pftool.DefaultTunables())
			if err != nil {
				panic(fmt.Sprintf("parallel: %s job %d: %v", s.name, spec.ID, err))
			}
			s.results = append(s.results, jr)
			if s.out == nil { // single-site run: nothing to replicate to
				continue
			}
			// The catalog delta crosses this site's WAN egress, then the
			// manifest message carries it to the successor island.
			s.egress.Transfer(int64(jr.Files)*parallelManifestEntry + 512)
			s.manifests.Inc()
			s.out.Send(&parallelManifest{
				Job: spec.ID, Files: jr.Files, Bytes: jr.Bytes,
				SentNs: int64(clock.Now()),
			})
		}
	})
}

// parallelOutcome is one full run's result.
type parallelOutcome struct {
	plant   *parallelPlant
	wall    float64
	virtual simtime.Duration
	stats   simtime.GroupStats
	merged  *telemetry.Snapshot
}

// runParallel executes the partitioned campaign on a fresh plant with
// the given worker cap.
func runParallel(p ParallelParams, plant *parallelPlant, workers int) parallelOutcome {
	out := parallelOutcome{plant: plant}
	t0 := time.Now()
	for e := 0; e < parallelEpochs; e++ {
		for _, s := range plant.sites {
			s.runEpoch(e, p.Seed)
		}
		end, err := plant.group.Run(workers)
		if err != nil {
			panic(fmt.Sprintf("parallel: epoch %d: %v", e, err))
		}
		out.virtual = end
	}
	out.wall = time.Since(t0).Seconds()
	out.stats = plant.group.Stats()

	names := make([]string, len(plant.sites))
	snaps := make([]*telemetry.Snapshot, len(plant.sites))
	for i, s := range plant.sites {
		names[i] = s.name
		snaps[i] = telemetry.Of(s.isl.Clock()).Snapshot()
	}
	out.merged = telemetry.Merge("island", names, snaps)
	return out
}

// canonical renders the deterministic model output the A/B test
// byte-compares: the per-job table plus the merged metrics exposition.
// Engine counters (walls, advances, null messages) are execution
// metadata and deliberately excluded.
func (o parallelOutcome) canonical() string {
	return o.body() + "\n" + o.merged.Text()
}

// body renders the per-island campaign table.
func (o parallelOutcome) body() string {
	t := stats.NewTable("island", "jobs", "files", "GB", "virtual h", "mean MB/s")
	var files int
	var bytes int64
	for _, s := range o.plant.sites {
		var f int
		var b int64
		var el float64
		var rate stats.Summary
		for _, j := range s.results {
			f += j.Files
			b += j.Bytes
			el += j.Elapsed.Seconds()
			rate.Add(j.RateMBs)
		}
		t.Row(s.name, len(s.results), f, fmt.Sprintf("%.0f", stats.GB(float64(b))), fmt.Sprintf("%.1f", el/3600), fmt.Sprintf("%.1f", rate.Mean()))
		files += f
		bytes += b
	}
	t.Row("total", o.jobCount(), files, fmt.Sprintf("%.0f", stats.GB(float64(bytes))), fmt.Sprintf("%.1f", o.virtual.Seconds()/3600), "")
	return t.String()
}

func (o parallelOutcome) jobCount() int {
	n := 0
	for _, s := range o.plant.sites {
		n += len(s.results)
	}
	return n
}

// engineRegistry builds the engine's own metrics registry — a side
// registry on a private clock, because these series describe the
// execution (wall seconds, scheduling artifacts), not the model, and
// must stay out of the deterministic snapshot.
func engineRegistry(o parallelOutcome) *telemetry.Registry {
	reg := telemetry.New(simtime.NewClock())
	adv := reg.Histogram("engine_island_advance_seconds")
	nulls := reg.Counter("engine_null_messages_total")
	for _, is := range o.stats.Islands {
		if is.Advances > 0 {
			// Mean bounded-slice wall time per island, observed once per
			// advance so the histogram weights islands by activity.
			mean := is.WallSeconds / float64(is.Advances)
			for k := uint64(0); k < is.Advances && k < 1000; k++ {
				adv.Observe(mean)
			}
		}
	}
	nulls.Add(float64(o.stats.NullMessages))
	return reg
}

// parallelStudy is E24 at the default parameters (the -exp parallel
// entry point).
func parallelStudy(seed int64) Report {
	r, _ := ParallelRun(ParallelParams{Seed: seed})
	return r
}

// ParallelRun executes E24 and returns both the rendered report and
// the machine-readable summary.
func ParallelRun(p ParallelParams) (Report, *ParallelReport) {
	p.defaults()

	// The report's Deterministic means *verified*: the A/B ran and the
	// outputs were byte-identical (a mismatch panics).
	haveBase := !p.NoBaseline
	var baseline parallelOutcome
	if haveBase {
		baseline = runParallel(p, buildParallelPlant(p), 1)
	}
	measured := runParallel(p, buildParallelPlant(p), p.Workers)
	if haveBase {
		if a, b := baseline.canonical(), measured.canonical(); a != b {
			plantRun{flight: telemetry.Of(measured.plant.sites[0].isl.Clock()).FlightDump()}.failf(
				"parallel: determinism violated: workers=1 and workers=%d outputs differ (%d vs %d bytes)",
				p.Workers, len(a), len(b))
		}
	}

	var files int
	var bytes int64
	for _, s := range measured.plant.sites {
		for _, j := range s.results {
			files += j.Files
			bytes += j.Bytes
		}
	}

	pr := &ParallelReport{
		Islands: p.Islands, Workers: p.Workers, Cores: runtime.NumCPU(),
		Jobs: measured.jobCount(), Files: files, Bytes: bytes, Epochs: parallelEpochs,
		VirtualSeconds: measured.virtual.Seconds(),
		WallSeconds:    measured.wall,
		Deterministic:  haveBase,
		Events:         measured.stats.Events,
		FastForwards:   measured.stats.FastForwards,
		ReplicaManifests: int(func() float64 {
			var n float64
			for _, s := range measured.plant.sites {
				n += s.manifests.Value()
			}
			return n
		}()),
		ReplicaMB:      measured.merged.Total("federation_replica_bytes_total") / 1e6,
		LagMeanSeconds: parallelLagMean(measured.merged),
	}
	pr.NullMessages = measured.stats.NullMessages
	if measured.wall > 0 {
		pr.EventsPerSec = float64(measured.stats.Events) / measured.wall
		pr.FilesPerSec = float64(files) / measured.wall
	}
	for i, is := range measured.stats.Islands {
		s := measured.plant.sites[i]
		var f int
		var b int64
		var el float64
		for _, j := range s.results {
			f += j.Files
			b += j.Bytes
			el += j.Elapsed.Seconds()
		}
		pr.PerIsland = append(pr.PerIsland, ParallelIsland{
			Name: is.Name, Jobs: len(s.results), Files: f, GB: stats.GB(float64(b)),
			VirtualSeconds: el, Events: is.Events,
			WallSeconds: is.WallSeconds, Advances: is.Advances,
		})
	}
	if haveBase {
		pr.BaselineWallSeconds = baseline.wall
		if measured.wall > 0 {
			pr.Speedup = baseline.wall / measured.wall
		}
		// The acceptance bound only binds where the host has the cores
		// to parallelize onto.
		if runtime.NumCPU() >= 4 && p.Workers >= 4 && pr.Speedup < parallelSpeedupFloor {
			panic(fmt.Sprintf("parallel: speedup %.2fx at %d workers on %d cores, want >= %.1fx",
				pr.Speedup, p.Workers, runtime.NumCPU(), parallelSpeedupFloor))
		}
	}
	pr.EngineMetricsText = engineRegistry(measured).Snapshot().Text()

	r := Report{
		Name:  "parallel",
		Title: fmt.Sprintf("Island-parallel engine: %d-site federation, %d workers (E24)", p.Islands, p.Workers),
		Body:  measured.body(),
		Notes: []string{
			fmt.Sprintf("wall %.1fs at %d workers; %d events (%.0f/s), %d null messages, %d fast-forwards",
				measured.wall, p.Workers, pr.Events, pr.EventsPerSec, pr.NullMessages, pr.FastForwards),
		},
	}
	if haveBase {
		verdict := "outputs byte-identical to single-threaded reference"
		r.Notes = append(r.Notes, fmt.Sprintf("baseline wall %.1fs at 1 worker -> speedup %.2fx; %s",
			baseline.wall, pr.Speedup, verdict))
	}
	r.Telemetry = measured.merged
	r.Flight = telemetry.Of(measured.plant.sites[0].isl.Clock()).FlightDump()
	r.Detail = pr

	r.metric("islands", float64(p.Islands))
	r.metric("workers", float64(p.Workers))
	r.metric("files", float64(files))
	r.metric("virtual_seconds", pr.VirtualSeconds)
	r.metric("wall_seconds", measured.wall)
	r.metric("events", float64(pr.Events))
	r.metric("events_per_sec", pr.EventsPerSec)
	r.metric("files_per_sec", pr.FilesPerSec)
	if haveBase {
		r.metric("baseline_wall_seconds", baseline.wall)
		r.metric("speedup", pr.Speedup)
	}
	return r, pr
}

// parallelLagMean derives the mean replication lag from the merged
// snapshot's histogram points.
func parallelLagMean(s *telemetry.Snapshot) float64 {
	var sum, count float64
	for _, pt := range s.Family("federation_replication_lag_seconds") {
		sum += pt.Sum
		count += pt.Count
	}
	if count == 0 {
		return 0
	}
	return sum / count
}
