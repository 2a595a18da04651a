// Package workload generates the synthetic Open Science campaign used
// to reproduce the paper's §5.2 evaluation: 62 parallel archive jobs
// whose per-job file counts, data volumes, and average file sizes span
// the ranges reported in Figures 8–11 (1..2.92M files/job, 4..32593
// GB/job, 4 KB..4220 MB average file size, ~4 PB total over 18
// operation days), plus the background trunk traffic that produces the
// bandwidth-sharing variance of Figure 10.
//
// The paper's real inputs were seven Open Science projects' data sets;
// those are proprietary, so this package substitutes log-uniform draws
// over the same ranges (the paper's own figures show the jobs spread
// roughly evenly across the decades on log10 axes).
package workload

import (
	"math"
	"math/rand"

	"repro/internal/fabric"
	"strconv"
	"strings"

	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

// JobSpec is one parallel archive job of the campaign.
type JobSpec struct {
	ID          int
	Project     string
	NumFiles    int
	TotalBytes  int64
	AvgFileSize int64
	// Background is the fraction of the trunk consumed by other users
	// while this job runs (the "bandwidth sharing and machine sharing"
	// of §5.2).
	Background float64
}

// CampaignConfig bounds the generator. Zero fields take the paper's
// values.
type CampaignConfig struct {
	Jobs        int
	Seed        int64
	MinJobBytes int64
	MaxJobBytes int64
	MinFileSize int64
	MaxFileSize int64
	MaxJobFiles int
	// MaxSimFiles caps the number of files actually materialized per
	// job (memory guard). Job bytes are preserved; a capped job gets
	// proportionally larger files. Zero means no cap.
	MaxSimFiles int
	// MaxBackground bounds the background trunk share drawn per job.
	MaxBackground float64
}

// PaperCampaign returns the §5.2 configuration: 62 jobs over the
// figure ranges, with file counts capped at 300k per job for simulation
// memory (documented substitution; lift the cap to regenerate the full
// 2.92M-file extreme).
func PaperCampaign(seed int64) CampaignConfig {
	return CampaignConfig{
		Jobs:          62,
		Seed:          seed,
		MinJobBytes:   4e9,     // 4 GB/job
		MaxJobBytes:   32593e9, // 32593 GB/job
		MinFileSize:   4e3,     // 4 KB/file
		MaxFileSize:   4220e6,  // 4220 MB/file
		MaxJobFiles:   2920088, // Fig. 8 maximum
		MaxSimFiles:   300000,
		MaxBackground: 0.9,
	}
}

// Projects are the seven Open Science project labels used for
// co-location grouping.
var Projects = []string{
	"materials", "astronomy", "laser-plasma", "turbulence",
	"cosmology", "plasma-kinetics", "supernova",
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Generate produces the campaign's job specs deterministically from the
// config seed.
func Generate(cfg CampaignConfig) []JobSpec {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 62
	}
	base := PaperCampaign(cfg.Seed)
	if cfg.MinJobBytes <= 0 {
		cfg.MinJobBytes = base.MinJobBytes
	}
	if cfg.MaxJobBytes <= 0 {
		cfg.MaxJobBytes = base.MaxJobBytes
	}
	if cfg.MinFileSize <= 0 {
		cfg.MinFileSize = base.MinFileSize
	}
	if cfg.MaxFileSize <= 0 {
		cfg.MaxFileSize = base.MaxFileSize
	}
	if cfg.MaxJobFiles <= 0 {
		cfg.MaxJobFiles = base.MaxJobFiles
	}
	if cfg.MaxBackground <= 0 {
		cfg.MaxBackground = base.MaxBackground
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]JobSpec, cfg.Jobs)
	for i := range jobs {
		total := int64(logUniform(r, float64(cfg.MinJobBytes), float64(cfg.MaxJobBytes)))
		// Average file size skews toward the top of its range: the
		// paper's per-job mean is 596 MB against a log-uniform mean of
		// ~304 MB over the same [4 KB, 4220 MB] extremes, i.e. most
		// Open Science jobs wrote large files and the small-file jobs
		// are the tail.
		lo, hi := math.Log(float64(cfg.MinFileSize)), math.Log(float64(cfg.MaxFileSize))
		avg := int64(math.Exp(lo + math.Pow(r.Float64(), 0.72)*(hi-lo)))
		count := int(total / avg)
		if count < 1 {
			count = 1
		}
		if count > cfg.MaxJobFiles {
			count = cfg.MaxJobFiles
		}
		if cfg.MaxSimFiles > 0 && count > cfg.MaxSimFiles {
			count = cfg.MaxSimFiles
		}
		// Background sharing skews high: the Open Science campaign ran
		// alongside production users, so most jobs saw substantial
		// trunk and machine sharing (the paper's mean 575 MB/s against
		// a 1868 MB/s best). A small off-hours fraction ran on a nearly
		// idle trunk — those are the figure's ~1868 MB/s outliers.
		var bg float64
		if r.Float64() < 0.15 {
			bg = 0.1 * r.Float64() // off-hours job
		} else {
			bg = cfg.MaxBackground * math.Pow(r.Float64(), 0.3)
		}
		jobs[i] = JobSpec{
			ID:          i + 1,
			Project:     Projects[r.Intn(len(Projects))],
			NumFiles:    count,
			TotalBytes:  total,
			AvgFileSize: total / int64(count),
			Background:  bg,
		}
	}
	return jobs
}

// fileSizes draws the individual file sizes of a job: log-normal around
// the job's average with moderate spread, rescaled so the sum equals
// TotalBytes exactly.
func fileSizes(spec JobSpec, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed ^ int64(spec.ID)<<16))
	sizes := make([]int64, spec.NumFiles)
	var sum float64
	raw := make([]float64, spec.NumFiles)
	for i := range raw {
		raw[i] = float64(spec.AvgFileSize) * math.Exp(r.NormFloat64()*0.6)
		sum += raw[i]
	}
	scale := float64(spec.TotalBytes) / sum
	var acc int64
	for i := range sizes {
		sizes[i] = int64(raw[i] * scale)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		acc += sizes[i]
	}
	// Pin the total exactly by adjusting the last file.
	diff := spec.TotalBytes - acc
	if sizes[len(sizes)-1]+diff > 0 {
		sizes[len(sizes)-1] += diff
	}
	return sizes
}

// numName builds "<prefix>/<c><n zero-padded to width>" without the
// fmt machinery: tree builds format one name per simulated file, which
// made Sprintf a top allocator at paper scale.
func numName(prefix string, c byte, width, n int) string {
	digits := 1
	for v := n; v >= 10; v /= 10 {
		digits++
	}
	if digits < width {
		digits = width
	}
	var buf [20]byte
	num := strconv.AppendInt(buf[:0], int64(n), 10)
	var b strings.Builder
	b.Grow(len(prefix) + 2 + digits)
	b.WriteString(prefix)
	b.WriteByte('/')
	b.WriteByte(c)
	for i := len(num); i < width; i++ {
		b.WriteByte('0')
	}
	b.Write(num)
	return b.String()
}

// BuildTree materializes a job's files on fs under root, spreading them
// over subdirectories of at most dirFanout entries. It returns the
// total bytes written.
func BuildTree(fs *pfs.FS, root string, spec JobSpec, seed int64, dirFanout int) (int64, error) {
	if dirFanout <= 0 {
		dirFanout = 2048
	}
	sizes := fileSizes(spec, seed)
	var total int64
	var specs []pfs.FileSpec
	dir := ""
	for i, size := range sizes {
		if i%dirFanout == 0 {
			if len(specs) > 0 {
				if err := fs.WriteFiles(specs); err != nil {
					return total, err
				}
				specs = specs[:0]
			}
			dir = numName(root, 'd', 4, i/dirFanout)
			if err := fs.MkdirAll(dir); err != nil {
				return total, err
			}
		}
		specs = append(specs, pfs.FileSpec{
			Path:    numName(dir, 'f', 6, i),
			Content: synthetic.NewUniform(uint64(seed)^uint64(spec.ID)<<32^uint64(i), size),
		})
		total += size
	}
	if len(specs) > 0 {
		if err := fs.WriteFiles(specs); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Noise occupies a fabric link with backlogged background streams until
// *stop becomes true, modelling the other Roadrunner users sharing the
// two 10GigE trunks during the Open Science runs. The link is
// fair-share, so the background's slice is streams/(streams+foreground);
// the stream count is sized so the background receives roughly the
// requested fraction against a typical PFTool worker pool (~20 flows).
func Noise(clock *simtime.Clock, link *fabric.Link, fraction float64, stop *bool) {
	if fraction <= 0 {
		return
	}
	if fraction > 0.95 {
		fraction = 0.95
	}
	const typicalForeground = 20.0
	streams := int(fraction/(1-fraction)*typicalForeground + 0.5)
	if streams < 1 {
		streams = 1
	}
	// Each burst is ~10 fair-share seconds of data, fine enough that
	// streams stay continuously backlogged. The bursts are not cheap in
	// events: on the bench's pfcp-bigfiles at seed 2010, Flow.Send's
	// same-instant re-extension path (this loop's) runs 1,132,185 times
	// against 2,342,124 clock events. The size stays anyway: changing
	// it moves every simulation digest.
	burst := int64(link.Capacity() * 10 / (typicalForeground + float64(streams)))
	if burst < 1 {
		burst = 1
	}
	for i := 0; i < streams; i++ {
		clock.Go(func() {
			// Each burst is a segment of one long-lived flow, so a
			// multi-day campaign's millions of bursts cost no fair-share
			// recompute churn.
			st := link.Stream()
			for !*stop {
				st.Send(burst)
			}
			st.Close()
		})
	}
}
