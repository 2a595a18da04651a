package vfs

import (
	"errors"
	"testing"
	"time"

	"repro/internal/synthetic"
)

func newFS() *FS { return New("test", nil) }

func TestMkdirAndStat(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/a"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir() {
		t.Error("expected directory")
	}
	if info.Name != "a" {
		t.Errorf("Name = %q, want a", info.Name)
	}
}

func TestMkdirAllDeep(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/a/b/c/d") {
		t.Error("deep path missing")
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Errorf("repeat MkdirAll: %v", err)
	}
	if fs.ndirs != 5 {
		t.Errorf("ndirs = %d, want 5", fs.ndirs)
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := newFS()
	c := synthetic.NewUniform(1, 1000)
	if err := fs.WriteFile("/f", c); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFileCheck("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Error("content mismatch")
	}
	info, _ := fs.Stat("/f")
	if info.Size != 1000 {
		t.Errorf("Size = %d, want 1000", info.Size)
	}
	if fs.numFiles() != 1 {
		t.Errorf("NumFiles = %d, want 1", fs.numFiles())
	}
}

func TestWriteFileReplacesKeepsID(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 10))
	id1, _ := fs.Stat("/f")
	fs.WriteFile("/f", synthetic.NewUniform(2, 20))
	id2, _ := fs.Stat("/f")
	if id1.ID != id2.ID {
		t.Error("overwrite changed the file ID")
	}
	if id2.Size != 20 {
		t.Errorf("Size = %d, want 20", id2.Size)
	}
}

func TestFileIDsUniqueAndStable(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/a", synthetic.NewUniform(1, 1))
	fs.WriteFile("/b", synthetic.NewUniform(2, 1))
	ia, _ := fs.Stat("/a")
	ib, _ := fs.Stat("/b")
	if ia.ID == ib.ID {
		t.Error("two files share an ID")
	}
	fs.Rename("/a", "/c")
	ic, _ := fs.Stat("/c")
	if ic.ID != ia.ID {
		t.Error("rename changed the file ID")
	}
	if got, err := fs.StatID(ia.ID); err != nil || got.Size != 1 {
		t.Errorf("StatID = %v, %v", got, err)
	}
}

func TestWriteAtAppendAndOverwrite(t *testing.T) {
	fs := newFS()
	base := synthetic.NewUniform(10, 100)
	fs.WriteFile("/f", base.Slice(0, 50))
	if err := fs.WriteAt("/f", 50, base.Slice(50, 50)); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFileCheck("/f", nil)
	if !got.Equal(base) {
		t.Error("append via WriteAt did not reassemble content")
	}
	// Overwrite interior.
	patch := synthetic.NewUniform(99, 10)
	fs.WriteAt("/f", 20, patch)
	got, _ = fs.ReadFileCheck("/f", nil)
	if !got.Slice(20, 10).Equal(patch) {
		t.Error("interior overwrite missing")
	}
	if got.Len() != 100 {
		t.Errorf("Len = %d, want 100", got.Len())
	}
}

func TestWriteAtSparseFails(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 10))
	if err := fs.WriteAt("/f", 20, synthetic.NewUniform(2, 5)); !errors.Is(err, errInvalid) {
		t.Errorf("err = %v, want ErrInvalid", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := newFS()
	for _, name := range []string{"/z", "/a", "/m"} {
		fs.WriteFile(name, synthetic.NewUniform(1, 1))
	}
	fs.MkdirAll("/dir")
	entries, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "dir", "m", "z"}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Errorf("entry %d = %q, want %q", i, e.Name, want[i])
		}
	}
}

func TestReadDirOnFileFails(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	if _, err := fs.ReadDir("/f"); !errors.Is(err, errNotDir) {
		t.Errorf("err = %v, want ErrNotDir", err)
	}
}

func TestRemoveFile(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	info, _ := fs.Stat("/f")
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Error("file still exists")
	}
	if _, err := fs.StatID(info.ID); !errors.Is(err, ErrNotExist) {
		t.Error("removed file still resolvable by ID")
	}
	if fs.numFiles() != 0 {
		t.Errorf("NumFiles = %d, want 0", fs.numFiles())
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", synthetic.NewUniform(1, 1))
	if err := fs.Remove("/d"); !errors.Is(err, errNotEmpty) {
		t.Errorf("err = %v, want ErrNotEmpty", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d/e/f")
	fs.WriteFile("/d/x", synthetic.NewUniform(1, 1))
	fs.WriteFile("/d/e/y", synthetic.NewUniform(2, 1))
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("tree still exists")
	}
	if fs.NumInodes() != 1 { // just the root
		t.Errorf("NumInodes = %d, want 1", fs.NumInodes())
	}
	// Missing path is fine.
	if err := fs.RemoveAll("/nope"); err != nil {
		t.Errorf("RemoveAll missing: %v", err)
	}
}

func TestRenameReplacesFile(t *testing.T) {
	fs := newFS()
	a := synthetic.NewUniform(1, 10)
	fs.WriteFile("/a", a)
	fs.WriteFile("/b", synthetic.NewUniform(2, 20))
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Error("source still exists")
	}
	got, _ := fs.ReadFileCheck("/b", nil)
	if !got.Equal(a) {
		t.Error("destination does not hold source content")
	}
	if fs.numFiles() != 1 {
		t.Errorf("NumFiles = %d, want 1", fs.numFiles())
	}
}

func TestRenameDirectory(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/sub")
	fs.WriteFile("/a/sub/f", synthetic.NewUniform(1, 5))
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/b/sub/f") {
		t.Error("renamed tree incomplete")
	}
}

func TestXattrs(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	if err := fs.SetXattr("/f", "hsm.state", "migrated"); err != nil {
		t.Fatal(err)
	}
	v, err := fs.GetXattr("/f", "hsm.state")
	if err != nil || v != "migrated" {
		t.Errorf("GetXattr = %q, %v", v, err)
	}
	info, _ := fs.Stat("/f")
	if v, ok := fs.xattrOf(info, "hsm.state"); !ok || v != "migrated" {
		t.Error("xattr missing from Stat")
	}
	fs.SetXattr("/f", "hsm.state", "")
	if v, _ := fs.GetXattr("/f", "hsm.state"); v != "" {
		t.Errorf("deleted xattr still present: %q", v)
	}
}

func TestWalkDeterministicOrder(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/b/y")
	fs.MkdirAll("/a")
	fs.WriteFile("/a/2", synthetic.NewUniform(1, 1))
	fs.WriteFile("/a/1", synthetic.NewUniform(2, 1))
	fs.WriteFile("/b/y/z", synthetic.NewUniform(3, 1))
	var paths []string
	fs.Walk("/", func(info Info) error {
		paths = append(paths, info.Path)
		return nil
	})
	want := []string{"/", "/a", "/a/1", "/a/2", "/b", "/b/y", "/b/y/z"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("paths[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/a", synthetic.NewUniform(1, 1))
	fs.WriteFile("/b", synthetic.NewUniform(2, 1))
	stop := errors.New("stop")
	count := 0
	err := fs.Walk("/", func(info Info) error {
		count++
		if count == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Errorf("err = %v, want stop", err)
	}
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestTotalBytes(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a", synthetic.NewUniform(1, 100))
	fs.WriteFile("/d/b", synthetic.NewUniform(2, 250))
	if got := fs.TotalBytes(); got != 350 {
		t.Errorf("TotalBytes = %d, want 350", got)
	}
}

func TestModTimeUsesClock(t *testing.T) {
	var now time.Duration
	fs := New("t", func() time.Duration { return now })
	now = 5 * time.Second
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	info, _ := fs.Stat("/f")
	if info.ModTime != 5*time.Second {
		t.Errorf("ModTime = %v, want 5s", info.ModTime)
	}
	now = 9 * time.Second
	fs.WriteAt("/f", 0, synthetic.NewUniform(2, 1))
	info, _ = fs.Stat("/f")
	if info.ModTime != 9*time.Second {
		t.Errorf("ModTime after write = %v, want 9s", info.ModTime)
	}
}

func TestPathCleaning(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", synthetic.NewUniform(1, 1))
	for _, p := range []string{"a/b/f", "/a//b/f", "/a/./b/f", "/a/b/../b/f"} {
		if !fs.Exists(p) {
			t.Errorf("path %q did not resolve", p)
		}
	}
}

// xattrOf reads a named extended attribute of the inode i describes,
// by its ID. It reads the inode's current attributes, not a copy taken
// when i was built: a later SetXattr shows, and a removed inode has
// none.
func (fs *FS) xattrOf(i Info, key string) (string, bool) {
	v, err := fs.GetXattrID(i.ID, key)
	return v, err == nil && v != ""
}

// numFiles reports the number of regular files.
func (fs *FS) numFiles() int { return fs.nfiles }
