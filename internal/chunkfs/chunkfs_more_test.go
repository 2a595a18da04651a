package chunkfs

import (
	"math/rand"
	"testing"

	"repro/internal/pfs"
	"repro/internal/synthetic"
)

func TestPrepareDirThenWriteChunksThenJoin(t *testing.T) {
	// The PFTool N-to-N destination flow: PrepareDir, write chunk files
	// independently, Join.
	sim(t, func(fs *pfs.FS) {
		content := synthetic.NewUniform(3, 1e6)
		plan, dir, err := PrepareDir(fs, "/out", 1e6, 300e3)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumChunks != 4 || dir != "/out.chunks" {
			t.Fatalf("plan = %+v, dir = %s", plan, dir)
		}
		// Write chunks out of order, as parallel workers would.
		for _, i := range []int{2, 0, 3, 1} {
			off, length := plan.ChunkRange(i)
			if err := fs.WriteFile(dir+"/"+ChunkName(i), content.Slice(off, length)); err != nil {
				t.Fatal(err)
			}
		}
		if err := Join(fs, dir, "/out"); err != nil {
			t.Fatal(err)
		}
		got, _ := fs.ReadContent("/out")
		if !got.Equal(content) {
			t.Error("content mismatch")
		}
	})
}

func TestSplitZeroLengthFile(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		plan := split(t, fs, "/empty", synthetic.Content{}, 100)
		if plan.NumChunks != 1 {
			t.Errorf("NumChunks = %d, want 1", plan.NumChunks)
		}
		if err := Join(fs, ChunkDir("/empty"), "/empty"); err != nil {
			t.Fatal(err)
		}
		info, _ := fs.Stat("/empty")
		if info.Size != 0 {
			t.Errorf("Size = %d", info.Size)
		}
	})
}

func TestChunksIgnoresForeignFiles(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		split(t, fs, "/f", synthetic.NewUniform(1, 1000), 400)
		dir := ChunkDir("/f")
		fs.WriteFile(dir+"/README", synthetic.NewUniform(9, 10))
		list, err := chunks(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 3 {
			t.Errorf("chunks = %d, want 3 (README excluded)", len(list))
		}
	})
}

func TestQuickSplitJoinRandomSizes(t *testing.T) {
	sim(t, func(fs *pfs.FS) {
		r := rand.New(rand.NewSource(13))
		for i := 0; i < 40; i++ {
			size := int64(r.Intn(100000) + 1)
			chunk := int64(r.Intn(30000) + 1)
			content := synthetic.NewUniform(r.Uint64()|1, size)
			split(t, fs, "/f", content, chunk)
			if err := Join(fs, ChunkDir("/f"), "/f"); err != nil {
				t.Fatalf("size=%d chunk=%d: %v", size, chunk, err)
			}
			got, _ := fs.ReadContent("/f")
			if !got.Equal(content) {
				t.Fatalf("size=%d chunk=%d: content mismatch", size, chunk)
			}
			fs.Remove("/f")
		}
	})
}
