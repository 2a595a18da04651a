// Package cli holds the shared scaffolding of the pfls/pfcp/pfcm
// command-line tools: since the real commands operated on live GPFS and
// Panasas mounts, the simulated ones first stand up a deployment and
// synthesize a source tree, both described by flags, then run the
// command's body on the simulation clock.
package cli

import (
	"flag"
	"fmt"
	"io"

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

// deploy stands up the paper's deployment and materializes the source
// tree at /src on scratch. Call from within a clock actor.
func deploy(clock *simtime.Clock, f *Flags) (*archive.System, error) {
	sys := archive.NewDefault(clock)
	if _, err := workload.BuildTree(sys.Scratch, "/src", f.Spec(), f.Seed, 2048); err != nil {
		return nil, fmt.Errorf("building source tree: %w", err)
	}
	return sys, nil
}

// Run deploys f's tree on a fresh clock, runs body on it as the one
// actor, and returns the process exit code: body's code, or 1 when the
// deployment, body or the clock fails, after printing the error to
// stderr prefixed with the command's name.
func Run(name string, f *Flags, stderr io.Writer, body func(clock *simtime.Clock, sys *archive.System) (int, error)) int {
	clock := simtime.NewClock()
	var code int
	var err error
	clock.Go(func() {
		var sys *archive.System
		if sys, err = deploy(clock, f); err == nil {
			code, err = body(clock, sys)
		}
	})
	if _, rerr := clock.Run(); rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, name+":", err)
		return 1
	}
	return code
}
