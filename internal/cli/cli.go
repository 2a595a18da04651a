// Package cli holds the shared scaffolding of the pfls/pfcp/pfcm
// command-line tools: since the real commands operated on live GPFS and
// Panasas mounts, the simulated ones first stand up a deployment and
// synthesize a source tree, both described by flags.
package cli

import (
	"flag"
	"fmt"

	"repro/internal/archive"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Flags are the common tool flags.
type Flags struct {
	Files     int
	TotalGB   float64
	Workers   int
	ReadDirs  int
	TapeProcs int
	Seed      int64
	Verbose   bool
	Restart   bool
}

// Register installs the common flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Files, "files", 1000, "files in the synthetic source tree")
	fs.Float64Var(&f.TotalGB, "gb", 100, "total gigabytes in the source tree")
	fs.IntVar(&f.Workers, "workers", 20, "PFTool worker processes")
	fs.IntVar(&f.ReadDirs, "readdirs", 4, "PFTool ReadDir processes")
	fs.IntVar(&f.TapeProcs, "tapeprocs", 4, "PFTool TapeProc processes")
	fs.Int64Var(&f.Seed, "seed", 2010, "synthetic data seed")
	fs.BoolVar(&f.Verbose, "v", false, "one output line per entry")
	fs.BoolVar(&f.Restart, "restart", false, "skip already-transferred files/chunks")
	return f
}

// Tunables converts flags to PFTool tunables.
func (f *Flags) Tunables() pftool.Tunables {
	t := pftool.DefaultTunables()
	t.NumWorkers = f.Workers
	t.NumReadDirs = f.ReadDirs
	t.NumTapeProcs = f.TapeProcs
	t.Verbose = f.Verbose
	t.Restart = f.Restart
	return t
}

// Spec builds the synthetic job description from the flags.
func (f *Flags) Spec() workload.JobSpec {
	total := int64(f.TotalGB * 1e9)
	files := f.Files
	if files < 1 {
		files = 1
	}
	return workload.JobSpec{
		ID: 1, Project: "cli",
		NumFiles:    files,
		TotalBytes:  total,
		AvgFileSize: total / int64(files),
	}
}

// Deploy stands up the paper's deployment and materializes the source
// tree at /src on scratch. Call from within a clock actor.
func Deploy(clock *simtime.Clock, f *Flags) (*archive.System, error) {
	sys := archive.NewDefault(clock)
	if _, err := workload.BuildTree(sys.Scratch, "/src", f.Spec(), f.Seed, 2048); err != nil {
		return nil, fmt.Errorf("building source tree: %w", err)
	}
	return sys, nil
}
