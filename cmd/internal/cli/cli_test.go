package cli

import (
	"testing"

	"repro/internal/pfs"
	"repro/internal/simtime"
)

func TestSpecFromFlags(t *testing.T) {
	f := &Flags{Files: 100, TotalGB: 10, Seed: 1}
	spec := f.Spec()
	if spec.NumFiles != 100 {
		t.Errorf("NumFiles = %d", spec.NumFiles)
	}
	if spec.TotalBytes != 10e9 {
		t.Errorf("TotalBytes = %d", spec.TotalBytes)
	}
	if spec.AvgFileSize != 1e8 {
		t.Errorf("AvgFileSize = %d", spec.AvgFileSize)
	}
}

func TestSpecClampsFiles(t *testing.T) {
	f := &Flags{Files: 0, TotalGB: 1}
	if f.Spec().NumFiles != 1 {
		t.Error("zero files should clamp to 1")
	}
}

func TestTunablesFromFlags(t *testing.T) {
	f := &Flags{Workers: 7, ReadDirs: 3, TapeProcs: 2, Verbose: true, Restart: true}
	tun := f.Tunables()
	if tun.NumWorkers != 7 || tun.NumReadDirs != 3 || tun.NumTapeProcs != 2 {
		t.Errorf("tunables = %+v", tun)
	}
	if !tun.Verbose || !tun.Restart {
		t.Error("flags not propagated")
	}
}

func TestDeployBuildsTree(t *testing.T) {
	clock := simtime.NewClock()
	f := &Flags{Files: 50, TotalGB: 1, Seed: 9, Workers: 4, ReadDirs: 1, TapeProcs: 1}
	clock.Go(func() {
		sys, err := deploy(clock, f)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		sys.Scratch.Walk("/", func(in pfs.Info) error {
			if !in.IsDir() {
				files++
			}
			return nil
		})
		if files != 50 {
			t.Errorf("deployed %d files, want 50", files)
		}
		if got := sys.Scratch.TotalBytes(); got != 1e9 {
			t.Errorf("TotalBytes = %d, want 1e9", got)
		}
		// The tree is usable by PFTool directly.
		res, err := sys.Pfls("scratch", "/src", f.Tunables())
		if err != nil {
			t.Fatal(err)
		}
		if res.FilesListed != 50 {
			t.Errorf("FilesListed = %d", res.FilesListed)
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}
