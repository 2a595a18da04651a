package chunkfs

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

func sim(t *testing.T, fn func(fs *pfs.FS)) {
	t.Helper()
	c := simtime.NewClock()
	cfg := pfs.GPFSConfig("gpfs")
	cfg.MetaOpCost = 0
	fs := pfs.New(c, cfg)
	c.Go(func() { fn(fs) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanFor(t *testing.T) {
	cases := []struct {
		size, chunk int64
		want        int
	}{
		{100, 30, 4},
		{90, 30, 3},
		{1, 30, 1},
		{0, 30, 1},
		{30, 30, 1},
		{31, 30, 2},
	}
	for _, tc := range cases {
		if got := PlanFor(tc.size, tc.chunk).NumChunks; got != tc.want {
			t.Errorf("PlanFor(%d,%d).NumChunks = %d, want %d", tc.size, tc.chunk, got, tc.want)
		}
	}
}

func TestChunkRange(t *testing.T) {
	p := PlanFor(100, 30)
	off, l := p.ChunkRange(0)
	if off != 0 || l != 30 {
		t.Errorf("chunk 0 = [%d,%d)", off, off+l)
	}
	off, l = p.ChunkRange(3)
	if off != 90 || l != 10 {
		t.Errorf("chunk 3 = %d+%d, want 90+10", off, l)
	}
}

// split lays content out as the chunk directory of p, the way pftool
// writes a very large file: PrepareDir, then every chunk in one
// WriteFiles batch.
func split(t *testing.T, fs *pfs.FS, p string, content synthetic.Content, chunkSize int64) Plan {
	t.Helper()
	plan, dir, err := PrepareDir(fs, p, content.Len(), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]pfs.FileSpec, plan.NumChunks)
	for i := range specs {
		off, length := plan.ChunkRange(i)
		specs[i] = pfs.FileSpec{Path: dir + "/" + ChunkName(i), Content: content.Slice(off, length)}
	}
	if err := fs.WriteFiles(specs); err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSplitJoinRoundTrip(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		content := synthetic.NewUniform(42, 1e6)
		fs.MkdirAll("/d")
		plan := split(t, fs, "/d/big", content, 300e3)
		if plan.NumChunks != 4 {
			t.Errorf("NumChunks = %d, want 4", plan.NumChunks)
		}
		list, err := chunks(fs, "/d/big.chunks")
		if err != nil || len(list) != 4 {
			t.Fatalf("chunks = %d, %v", len(list), err)
		}
		// Chunk contents slice the original exactly.
		c0, _ := fs.ReadContent("/d/big.chunks/chunk.000000")
		if !c0.Equal(content.Slice(0, 300e3)) {
			t.Error("chunk 0 content mismatch")
		}
		if err := Join(fs, "/d/big.chunks", "/d/big"); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadContent("/d/big")
		if err != nil || !got.Equal(content) {
			t.Errorf("joined content mismatch: %v", err)
		}
		if fs.Exists("/d/big.chunks") {
			t.Error("chunk dir should be removed after join")
		}
	})
}

func TestReadPlanRoundTrip(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		want := split(t, fs, "/f", synthetic.NewUniform(1, 12345), 5000)
		got, err := readPlan(fs, ChunkDir("/f"))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ReadPlan = %+v, want %+v", got, want)
		}
	})
}

func TestReadPlanOnPlainDirFails(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		fs.MkdirAll("/plain")
		if _, err := readPlan(fs, "/plain"); !errors.Is(err, errNotChunked) {
			t.Errorf("err = %v, want ErrNotChunked", err)
		}
	})
}

func TestJoinRefusesMissingChunk(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		split(t, fs, "/f", synthetic.NewUniform(1, 1000), 400)
		fs.Remove(ChunkDir("/f") + "/chunk.000001")
		if err := Join(fs, ChunkDir("/f"), "/f"); !errors.Is(err, errIncomplete) {
			t.Errorf("err = %v, want ErrIncomplete", err)
		}
	})
}

func TestJoinRefusesShortChunk(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		split(t, fs, "/f", synthetic.NewUniform(1, 1000), 400)
		fs.WriteFile(ChunkDir("/f")+"/chunk.000000", synthetic.NewUniform(2, 100))
		if err := Join(fs, ChunkDir("/f"), "/f"); !errors.Is(err, errIncomplete) {
			t.Errorf("err = %v, want ErrIncomplete", err)
		}
	})
}

func TestPathHelpers(t *testing.T) {
	if ChunkDir("/a/b") != "/a/b.chunks" {
		t.Error("ChunkDir wrong")
	}
	if ChunkName(7) != "chunk.000007" {
		t.Error("ChunkName wrong")
	}
}

// chunks lists the chunk files of dir in index order.
func chunks(fs *pfs.FS, dir string) ([]pfs.Info, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []pfs.Info
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name, "chunk.") {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
