package vfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/synthetic"
)

// The arena lets a chunk go when every ID in it has been handed out and
// the last inode linked in it is removed — and only then.
func TestArenaReleasesDeadChunks(t *testing.T) {
	const chunkSize = 1 << chunkBits
	fs := newFS()
	fs.MkdirAll("/t")
	file := func(i int) string { return fmt.Sprintf("/t/f%05d", i) }
	// Root and /t are IDs 1 and 2; /t/f<i> is ID i+3 until /keep (in
	// chunk 2) shifts the rest by one. The last file lands in chunk 4.
	const n = 4*chunkSize + 100
	var keepID FileID
	for i := 0; i < n; i++ {
		if i == 2*chunkSize+50 {
			fs.WriteFile("/keep", synthetic.NewUniform(1, 1))
			keep, _ := fs.Stat("/keep")
			keepID = keep.ID
		}
		if err := fs.WriteFile(file(i), synthetic.NewUniform(uint64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if keepID>>chunkBits != 2 || fs.nextID>>chunkBits != 4 {
		t.Fatalf("/keep is ID %d, nextID %d: the test's layout is off", keepID, fs.nextID)
	}
	fs.SetXattr(file(chunkSize), "owner", "alice")
	held, _ := fs.Stat(file(chunkSize)) // an inode of chunk 1
	if v, ok := held.xattr("owner"); !ok || v != "alice" {
		t.Fatalf("Xattr before removal = %q, %v", v, ok)
	}

	// Remove the tree from inside a walk over it: the walk is suspended
	// in fn, holding the directory's entries, while every inode it was
	// about to visit is dropped and three chunks are released.
	visited := 0
	err := fs.Walk("/t", func(e Info) error {
		visited++
		if e.Path == file(0) {
			return fs.RemoveAll("/t")
		}
		return nil
	})
	if err != nil || visited != 2 {
		t.Errorf("walk across the removal: visited %d, err %v; want /t and its first file, nil", visited, err)
	}

	nextID := fs.nextID
	for c, want := range []bool{
		false, // chunk 0: the root lives here
		true,  // chunk 1: full and dead
		false, // chunk 2: /keep survives
		true,  // chunk 3: full and dead
		false, // chunk 4: dead, but IDs are still to come from it
	} {
		if got := fs.chunks[c].nodes == nil; got != want {
			t.Errorf("chunk %d released = %v, want %v (linked %d)", c, got, want, fs.chunks[c].linked)
		}
	}
	if fs.NumInodes() != 2 || fs.chunks[0].linked != 1 || fs.chunks[2].linked != 1 {
		t.Errorf("NumInodes = %d, chunk 0 holds %d, chunk 2 holds %d; want 2, 1, 1",
			fs.NumInodes(), fs.chunks[0].linked, fs.chunks[2].linked)
	}
	for _, id := range []FileID{0, 2, 3, chunkSize, 2*chunkSize - 1, keepID + 1, 3 * chunkSize, nextID, nextID + 1} {
		if _, err := fs.StatID(id); !errors.Is(err, ErrNotExist) {
			t.Errorf("StatID(%d) of a removed or never-issued ID: err = %v, want ErrNotExist", id, err)
		}
	}
	if keep, err := fs.StatID(keepID); err != nil || keep.Size != 1 {
		t.Errorf("StatID(/keep) = %+v, %v", keep, err)
	}
	if v, ok := held.xattr("owner"); ok {
		t.Errorf("Info of a removed inode in a released chunk still reports owner = %q", v)
	}

	// IDs go on counting: nothing is reused, released or not.
	fs.WriteFile("/next", synthetic.Content{})
	if next, _ := fs.Stat("/next"); next.ID != nextID+1 {
		t.Errorf("ID after the removal = %d, want %d", next.ID, nextID+1)
	}
}

// A chunk whose last inode dies on the very ID that fills it is
// released too (the boundary of "every ID handed out").
func TestArenaReleasesChunkFilledByItsLastID(t *testing.T) {
	const chunkSize = 1 << chunkBits
	fs := newFS()
	var last string
	for fs.nextID < 2*chunkSize-1 {
		last = fmt.Sprintf("/f%05d", fs.nextID)
		fs.WriteFile(last, synthetic.Content{})
		if fs.nextID >= chunkSize { // at most one inode of chunk 1 is linked at a time
			if err := fs.Remove(last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fs.chunks[1].nodes != nil || fs.chunks[1].linked != 0 {
		t.Errorf("chunk 1 after its last ID (%d) was issued and removed: released = %v, linked = %d",
			fs.nextID, fs.chunks[1].nodes == nil, fs.chunks[1].linked)
	}
}

// The pair list must read exactly as the map it replaced did.
func TestXattrListMatchesMap(t *testing.T) {
	steps := []struct{ key, value string }{
		{"a", ""}, // delete on an inode that never had attributes
		{"a", "1"},
		{"b", "2"}, // second: the list leaves its inline slot
		{"a", "3"}, // overwrite
		{"zz", ""}, // delete absent
		{"c", "4"},
		{"a", ""},  // delete the first-inserted
		{"a", "5"}, // and bring it back, now last
		{"d", "6"},
		{"e", "7"},
		{"f", "8"},
		{"g", "9"}, // seventh live key: grows again
		{"c", ""},  // delete from the middle
		{"g", ""},  // delete the last
		{"b", ""},
		{"d", ""},
		{"e", ""},
		{"f", ""},
		{"a", ""}, // empty again
		{"a", ""},
		{"h", "10"},
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "zz", ""}
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	info, _ := fs.Stat("/f")
	want := map[string]string{}
	for i, s := range steps {
		if err := fs.SetXattr("/f", s.key, s.value); err != nil {
			t.Fatal(err)
		}
		if s.value == "" {
			delete(want, s.key)
		} else {
			want[s.key] = s.value
		}
		// Reads in two different orders: a lookup must not depend on
		// what was looked up before it.
		for _, order := range [][]string{keys, reversed(keys)} {
			for _, k := range order {
				got, _ := fs.GetXattr("/f", k)
				v, ok := info.xattr(k)
				if w, wok := want[k]; got != w || v != w || ok != wok {
					t.Fatalf("step %d (%q=%q): %q reads %q / %q,%v; the map has %q,%v", i, s.key, s.value, k, got, v, ok, w, wok)
				}
			}
		}
		n, _, _ := fs.lookup("/f")
		if n.xattrs != nil && len(n.xattrs.l) != len(want) {
			t.Fatalf("step %d: list holds %d pairs, map %d", i, len(n.xattrs.l), len(want))
		}
	}
	if _, err := fs.GetXattr("/missing", "a"); !errors.Is(err, ErrNotExist) {
		t.Errorf("GetXattr on a missing path: %v", err)
	}
	if err := fs.SetXattr("/missing", "a", "1"); !errors.Is(err, ErrNotExist) {
		t.Errorf("SetXattr on a missing path: %v", err)
	}
}

// A file's first attribute costs one allocation: the list, with the
// attribute inline.
func TestFirstXattrIsOneAllocation(t *testing.T) {
	const n = 100
	fs := newFS()
	fs.MkdirAll("/t")
	ids := make([]FileID, n)
	for i := range ids {
		p := fmt.Sprintf("/t/f%03d", i)
		fs.WriteFile(p, synthetic.Content{})
		info, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	next := 0
	allocs := testing.AllocsPerRun(n-1, func() { // n calls with the warm-up
		if err := fs.SetXattrID(ids[next], "hsm.sum", "5eed"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("a first SetXattr allocates %v times, want 1", allocs)
	}
	if v, _ := fs.GetXattrID(ids[n-1], "hsm.sum"); v != "5eed" {
		t.Errorf("attribute reads %q, want 5eed", v)
	}
}

func reversed(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
