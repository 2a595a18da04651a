// Package chunkfs is the reproduction of ArchiveFUSE (§4.1.2(4),
// §4.4–4.5): a mapping layer that presents a very large file as N
// equal-size chunk files so that migration, recall, and copy all
// parallelize N-to-N instead of contending N-to-1 on a single inode.
// PFTool marks each chunk file it lands with StateXattr = StateGood,
// the per-chunk marks behind the paper's restartable transfers ("we
// mark regular file chunks or FUSE file chunks as good or bad so that
// we don't have to re-send known good chunks"): a restarted copy skips
// a full-size chunk marked good and re-sends any other. Join refuses a
// chunk set with a missing or short chunk.
package chunkfs

import (
	"errors"
	"fmt"
	"path"

	"repro/internal/pfs"
	"repro/internal/synthetic"
)

// Chunk-state extended attribute key, and the value that marks a
// chunk landed in full.
const (
	StateXattr = "chunkfs.state"
	StateGood  = "good"
)

// manifest xattr on the chunk directory records the logical size.
const (
	sizeXattr  = "chunkfs.size"
	chunkXattr = "chunkfs.chunksize"
)

// Errors.
var (
	errNotChunked = errors.New("chunkfs: not a chunk directory")
	errIncomplete = errors.New("chunkfs: chunk set incomplete")
)

// ChunkDir returns the chunk-directory path that represents the logical
// file p.
func ChunkDir(p string) string { return p + ".chunks" }

// ChunkName formats the i-th chunk file name.
func ChunkName(i int) string { return fmt.Sprintf("chunk.%06d", i) }

// Plan describes how a logical file splits.
type Plan struct {
	LogicalSize int64
	ChunkSize   int64
	NumChunks   int
}

// PlanFor computes the chunking of a file of the given size. Sizes of
// zero still get one (empty) chunk so the manifest round-trips.
func PlanFor(size, chunkSize int64) Plan {
	if chunkSize <= 0 {
		panic("chunkfs: chunk size must be positive")
	}
	n := int((size + chunkSize - 1) / chunkSize)
	if n == 0 {
		n = 1
	}
	return Plan{LogicalSize: size, ChunkSize: chunkSize, NumChunks: n}
}

// ChunkRange returns the byte range [off, off+len) of chunk i.
func (p Plan) ChunkRange(i int) (off, length int64) {
	off = int64(i) * p.ChunkSize
	length = p.ChunkSize
	if off+length > p.LogicalSize {
		length = p.LogicalSize - off
	}
	if length < 0 {
		length = 0
	}
	return off, length
}

// PrepareDir creates an empty chunk directory with a manifest for a
// logical file about to be written chunk-by-chunk (the destination side
// of PFTool's N-to-N very-large-file copy). It returns the plan and the
// chunk directory path.
func PrepareDir(fs *pfs.FS, logicalPath string, size, chunkSize int64) (Plan, string, error) {
	plan := PlanFor(size, chunkSize)
	dir := ChunkDir(logicalPath)
	if err := fs.MkdirAll(dir); err != nil {
		return Plan{}, "", err
	}
	if err := fs.SetXattr(dir, sizeXattr, fmt.Sprint(plan.LogicalSize)); err != nil {
		return Plan{}, "", err
	}
	if err := fs.SetXattr(dir, chunkXattr, fmt.Sprint(plan.ChunkSize)); err != nil {
		return Plan{}, "", err
	}
	return plan, dir, nil
}

// readPlan reads the manifest of a chunk directory.
func readPlan(fs *pfs.FS, dir string) (Plan, error) {
	sizeStr, err := fs.GetXattr(dir, sizeXattr)
	if err != nil {
		return Plan{}, err
	}
	chunkStr, _ := fs.GetXattr(dir, chunkXattr)
	if sizeStr == "" || chunkStr == "" {
		return Plan{}, fmt.Errorf("%w: %s", errNotChunked, dir)
	}
	var size, chunk int64
	if _, err := fmt.Sscan(sizeStr, &size); err != nil {
		return Plan{}, fmt.Errorf("chunkfs: bad size manifest on %s: %v", dir, err)
	}
	if _, err := fmt.Sscan(chunkStr, &chunk); err != nil {
		return Plan{}, fmt.Errorf("chunkfs: bad chunk manifest on %s: %v", dir, err)
	}
	return PlanFor(size, chunk), nil
}

// Join reassembles the chunk directory dir into the regular file at
// target, verifying that every chunk is present with the planned size.
// The chunk directory is removed on success.
func Join(fs *pfs.FS, dir, target string) error {
	plan, err := readPlan(fs, dir)
	if err != nil {
		return err
	}
	parts := make([]synthetic.Content, plan.NumChunks)
	for i := 0; i < plan.NumChunks; i++ {
		cp := path.Join(dir, ChunkName(i))
		info, err := fs.Stat(cp)
		if err != nil {
			return fmt.Errorf("%w: missing %s", errIncomplete, cp)
		}
		_, wantLen := plan.ChunkRange(i)
		if info.Size != wantLen {
			return fmt.Errorf("%w: %s has %d bytes, want %d", errIncomplete, cp, info.Size, wantLen)
		}
		c, err := fs.ReadContent(cp)
		if err != nil {
			return err
		}
		parts[i] = c
	}
	if err := fs.WriteFile(target, synthetic.Concat(parts...)); err != nil {
		return err
	}
	return fs.RemoveAll(dir)
}
