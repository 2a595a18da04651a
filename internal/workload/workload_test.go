package workload

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(PaperCampaign(7))
	b := Generate(PaperCampaign(7))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between runs with the same seed", i)
		}
	}
	c := Generate(PaperCampaign(8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestGenerateRespectsRanges(t *testing.T) {
	cfg := PaperCampaign(1)
	jobs := Generate(cfg)
	if len(jobs) != 62 {
		t.Fatalf("jobs = %d, want 62", len(jobs))
	}
	for _, j := range jobs {
		if j.TotalBytes < cfg.MinJobBytes || j.TotalBytes > cfg.MaxJobBytes {
			t.Errorf("job %d TotalBytes %d out of range", j.ID, j.TotalBytes)
		}
		if j.NumFiles < 1 || j.NumFiles > cfg.MaxSimFiles {
			t.Errorf("job %d NumFiles %d out of range", j.ID, j.NumFiles)
		}
		if j.Background < 0 || j.Background > cfg.MaxBackground {
			t.Errorf("job %d Background %f out of range", j.ID, j.Background)
		}
		if j.AvgFileSize != j.TotalBytes/int64(j.NumFiles) {
			t.Errorf("job %d AvgFileSize inconsistent", j.ID)
		}
		if j.Project == "" {
			t.Errorf("job %d has no project", j.ID)
		}
	}
}

func TestGenerateSpansDecades(t *testing.T) {
	// The figures show jobs spread over many orders of magnitude; the
	// generator must not cluster them.
	jobs := Generate(PaperCampaign(42))
	smallJobs, bigJobs := 0, 0
	for _, j := range jobs {
		if j.TotalBytes < 100e9 {
			smallJobs++
		}
		if j.TotalBytes > 5e12 {
			bigJobs++
		}
	}
	if smallJobs == 0 || bigJobs == 0 {
		t.Errorf("campaign not spread: %d small, %d big", smallJobs, bigJobs)
	}
}

func TestFileSizesSumExactly(t *testing.T) {
	spec := JobSpec{ID: 3, NumFiles: 500, TotalBytes: 123456789, AvgFileSize: 123456789 / 500}
	sizes := fileSizes(spec, 99)
	if len(sizes) != 500 {
		t.Fatalf("len = %d", len(sizes))
	}
	var sum int64
	for _, s := range sizes {
		if s < 1 {
			t.Fatal("non-positive file size")
		}
		sum += s
	}
	if sum != spec.TotalBytes {
		t.Errorf("sum = %d, want %d", sum, spec.TotalBytes)
	}
}

func TestFileSizesVary(t *testing.T) {
	spec := JobSpec{ID: 1, NumFiles: 100, TotalBytes: 100e6, AvgFileSize: 1e6}
	sizes := fileSizes(spec, 5)
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max < 2*min {
		t.Errorf("sizes too uniform: min %d max %d", min, max)
	}
}

func TestBuildTreeMaterializesJob(t *testing.T) {
	clock := simtime.NewClock()
	cfg := pfs.PanasasConfig("scratch")
	cfg.MetaOpCost = 0
	fs := pfs.New(clock, cfg)
	spec := JobSpec{ID: 1, NumFiles: 250, TotalBytes: 25e6, AvgFileSize: 1e5}
	clock.Go(func() {
		total, err := BuildTree(fs, "/job1", spec, 11, 100)
		if err != nil {
			t.Fatal(err)
		}
		if total != spec.TotalBytes {
			t.Errorf("total = %d, want %d", total, spec.TotalBytes)
		}
		files := 0
		fs.Walk("/job1", func(in pfs.Info) error {
			if !in.IsDir() {
				files++
			}
			return nil
		})
		if files != 250 {
			t.Errorf("built %d files, want 250", files)
		}
		// Fanout of 100: expect 3 subdirectories.
		entries, _ := fs.ReadDir("/job1")
		if len(entries) != 3 {
			t.Errorf("subdirs = %d, want 3", len(entries))
		}
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseOccupiesLink(t *testing.T) {
	clock := simtime.NewClock()
	link := fabric.Of(clock).AddLink("trunk", 1e9, "a", "b")
	stop := false
	Noise(clock, link, 0.5, &stop)
	var foregroundTime time.Duration
	clock.Go(func() {
		// Give the noise a head start so sharing is established.
		clock.Sleep(5 * time.Second)
		start := clock.Now()
		fabric.Path{}.With(link).Transfer(10e9) // 10s alone; far longer against 20 noise streams
		foregroundTime = clock.Now() - start
		stop = true
	})
	if _, err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if foregroundTime < 13*time.Second {
		t.Errorf("foreground took %v; noise did not contend (want >13s)", foregroundTime)
	}
}

func TestNoiseZeroFractionIsNoop(t *testing.T) {
	clock := simtime.NewClock()
	link := fabric.Of(clock).AddLink("trunk", 1e9, "a", "b")
	stop := false
	Noise(clock, link, 0, &stop)
	end, err := clock.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Errorf("end = %v, want 0", end)
	}
}
