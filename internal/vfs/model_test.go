package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/synthetic"
)

// model is the naive namespace the real one is held to: every inode in
// one map keyed by its canonical path, listings by filter-and-sort.
type model map[string]mnode

type mnode struct {
	dir  bool
	size int64
	id   FileID // as the FS under test assigned it; must never change
	seed uint64 // a file's content is synthetic.NewUniform(seed, size)
	attr string // the inode's xattr modelKey ("" = unset)
}

// modelKey is the one extended attribute the model follows.
const modelKey = "k"

// resolve mirrors FS.lookup's error order: walking from the root, a
// non-directory with segments still to go is ErrNotDir, a missing
// segment ErrNotExist.
func (m model) resolve(p string) error {
	cur := "/"
	for _, seg := range strings.Split(strings.Trim(p, "/"), "/") {
		if seg == "" {
			continue
		}
		if !m[cur].dir {
			return errNotDir
		}
		cur = path.Join(cur, seg)
		if _, ok := m[cur]; !ok {
			return ErrNotExist
		}
	}
	return nil
}

func (m model) parent(p string) error {
	if p == "/" {
		return errInvalid
	}
	dir := path.Dir(p)
	if err := m.resolve(dir); err != nil {
		return err
	}
	if !m[dir].dir {
		return errNotDir
	}
	return nil
}

// under returns p and every path beneath it, sorted (which is Walk's
// order: every name byte sorts above '/').
func (m model) under(p string) []string {
	var out []string
	for k := range m {
		if k == p || p == "/" || strings.HasPrefix(k, p+"/") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (m model) children(p string) []string {
	var out []string
	for _, k := range m.under(p) {
		if k != p && path.Dir(k) == p {
			out = append(out, k)
		}
	}
	return out
}

func (m model) mkdirAll(p string) error {
	cur := "/"
	for _, seg := range strings.Split(strings.Trim(p, "/"), "/") {
		if seg == "" {
			continue
		}
		cur = path.Join(cur, seg)
		if n, ok := m[cur]; !ok {
			m[cur] = mnode{dir: true}
		} else if !n.dir {
			return errNotDir
		}
	}
	return nil
}

func (m model) writeFile(p string, size int64, seed uint64) error {
	if err := m.parent(p); err != nil {
		return err
	}
	n, ok := m[p]
	if ok && n.dir {
		return ErrIsDir
	}
	m[p] = mnode{size: size, id: n.id, seed: seed, attr: n.attr}
	return nil
}

// byID returns the path of the live inode the model knows by id, or "".
func (m model) byID(id FileID) string {
	for p, n := range m {
		if n.id == id {
			return p
		}
	}
	return ""
}

func (m model) remove(p string) error {
	if err := m.parent(p); err != nil {
		return err
	}
	if _, ok := m[p]; !ok {
		return ErrNotExist
	}
	if len(m.under(p)) > 1 {
		return errNotEmpty
	}
	delete(m, p)
	return nil
}

func (m model) removeAll(p string) error {
	if err := m.parent(p); err != nil {
		if err == ErrNotExist {
			return nil
		}
		return err
	}
	for _, k := range m.under(p) {
		delete(m, k)
	}
	return nil
}

func (m model) rename(oldp, newp string) error {
	if err := m.parent(oldp); err != nil {
		return err
	}
	n, ok := m[oldp]
	if !ok {
		return ErrNotExist
	}
	if n.dir && strings.HasPrefix(newp, oldp+"/") {
		return errInvalid
	}
	if err := m.parent(newp); err != nil {
		return err
	}
	if newp == oldp {
		return nil
	}
	if e, ok := m[newp]; ok {
		if e.dir && len(m.under(newp)) > 1 {
			return errNotEmpty
		}
		if !e.dir && n.dir {
			return errNotDir
		}
		delete(m, newp)
	}
	for _, k := range m.under(oldp) {
		m[newp+k[len(oldp):]] = m[k]
		delete(m, k)
	}
	return nil
}

// sentinel reduces an FS error to the package sentinel it wraps.
func sentinel(err error) error {
	for _, s := range []error{ErrNotExist, errNotDir, ErrIsDir, errNotEmpty, errInvalid} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

const modelNames = 40 // names per level: directories outgrow the unindexed scan and rebuild

// opReader decodes an operation stream: an opcode byte, then per path a
// shape byte (depth 0-3 in the low bits, 0x80 = spell it uncleanly) and
// one name byte per segment. Past its end the stream reads as zeros.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// path returns the canonical path and the spelling handed to the FS.
func (r *opReader) path() (canon, spelled string) {
	shape := r.byte()
	canon = "/"
	for i := 0; i < int(shape&3); i++ {
		canon = path.Join(canon, fmt.Sprintf("n%02d", r.byte()%modelNames))
	}
	spelled = canon
	if shape&0x80 != 0 {
		spelled = strings.ReplaceAll(canon, "/", "//") + "/."
	}
	return canon, spelled
}

// encodeOp is the inverse, for seed corpora: names are indices.
func encodeOp(op byte, paths ...[]byte) []byte {
	out := []byte{op}
	for _, p := range paths {
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

const (
	opMkdirAll = iota
	opWriteFile
	opRemove
	opRemoveAll
	opRename
	opReadDir
	opWalk
	opStatID
	opByID
	numOps
)

// ids returns the IDs the model has recorded, each with its path.
func (m model) ids() map[FileID]string {
	out := make(map[FileID]string, len(m))
	for p, n := range m {
		if n.id != 0 {
			out[n.id] = p
		}
	}
	return out
}

// checkDead demands that id, removed or never issued, does not resolve.
func checkDead(t testing.TB, desc string, fs *FS, id FileID) {
	if e, err := fs.StatID(id); !errors.Is(err, ErrNotExist) {
		t.Fatalf("%s: StatID(%d) of a dead ID = %+v, %v; want ErrNotExist", desc, id, e, err)
	}
}

// runOps applies the stream to a fresh FS and to the model, demanding
// the same error class from every operation, the same listings, and
// inode counts equal to both the model's and the walked counts.
func runOps(t testing.TB, data []byte) {
	fs := newFS()
	m := model{"/": {dir: true, id: 1}}
	r := &opReader{data: data}
	var dead []FileID // IDs the model saw and has since removed, in order of death
	diedAt := map[FileID]string{}
	for step := 0; len(r.data) > 0; step++ {
		op := r.byte() % numOps
		p, spelled := r.path()
		var got, want error
		desc := fmt.Sprintf("step %d op %d %s", step, op, spelled)
		var before map[FileID]string
		if op == opRemove || op == opRemoveAll || op == opRename {
			before = m.ids()
		}
		switch op {
		case opMkdirAll:
			got, want = fs.MkdirAll(spelled), m.mkdirAll(p)
		case opWriteFile:
			size := int64(r.byte())
			got, want = fs.WriteFile(spelled, synthetic.NewUniform(uint64(step), size)), m.writeFile(p, size, uint64(step))
		case opRemove:
			got, want = fs.Remove(spelled), m.remove(p)
		case opRemoveAll:
			got, want = fs.RemoveAll(spelled), m.removeAll(p)
		case opRename:
			p2, spelled2 := r.path()
			desc += " -> " + spelled2
			got, want = fs.Rename(spelled, spelled2), m.rename(p, p2)
		case opReadDir:
			want = m.resolve(p)
			if want == nil && !m[p].dir {
				want = errNotDir
			}
			var entries []Info
			entries, got = fs.ReadDir(spelled)
			if got == nil && want == nil {
				kids := m.children(p)
				if len(entries) != len(kids) {
					t.Fatalf("%s: %d entries, model has %d", desc, len(entries), len(kids))
				}
				for i, e := range entries {
					checkInfo(t, desc, m, e, kids[i])
				}
			}
		case opWalk:
			want = m.resolve(p)
			var walked []Info
			got = fs.Walk(spelled, func(i Info) error { walked = append(walked, i); return nil })
			if got == nil && want == nil {
				checkTree(t, desc, m, walked, m.under(p))
			}
		case opStatID:
			// A live inode resolves by its ID to itself; an ID that has
			// died, zero, and the one not yet issued do not resolve.
			want = m.resolve(p)
			var e, byID Info
			if e, got = fs.Stat(spelled); got == nil && want == nil {
				checkInfo(t, desc, m, e, p)
				if byID, got = fs.StatID(e.ID); byID.ID != e.ID || byID.Size != e.Size || byID.Type != e.Type || byID.Path != "" {
					t.Fatalf("%s: StatID(%d) = %+v, %v; Stat saw %+v", desc, e.ID, byID, got, e)
				}
			}
			if pick := int(r.byte())<<8 | int(r.byte()); len(dead) > 0 {
				checkDead(t, desc, fs, dead[pick%len(dead)])
			}
			checkDead(t, desc, fs, 0)
			checkDead(t, desc, fs, fs.nextID+1)
		case opByID:
			got, want = byIDOp(t, desc, fs, m, r, p, spelled, dead, diedAt)
		}
		if sentinel(got) != want {
			t.Fatalf("%s: err = %v, model says %v", desc, got, want)
		}
		if before != nil {
			var died []FileID
			after := m.ids()
			for id, at := range before {
				if _, ok := after[id]; !ok {
					died = append(died, id)
					diedAt[id] = at
				}
			}
			slices.Sort(died)
			dead = append(dead, died...)
		}
		if step%64 == 0 {
			checkAll(t, desc, fs, m)
		}
	}
	checkAll(t, "end", fs, m)
	for _, id := range dead {
		checkDead(t, "end", fs, id)
	}
}

// byIDOp is opByID: one of StatID, ReadFileCheckID, GetXattrID and
// SetXattrID on an ID drawn as the stream says — the inode at p, any
// dead ID, or a dead ID whose path holds a new inode again. A live ID
// acts on its inode as the path form would; a dead one is ErrNotExist
// and leaves everything alone, the new file at its old path included.
// It returns the error class seen and the one the model predicts.
func byIDOp(t testing.TB, desc string, fs *FS, m model, r *opReader, p, spelled string, dead []FileID, diedAt map[FileID]string) (got, want error) {
	kind, pick, sub, val := r.byte()%3, int(r.byte())<<8|int(r.byte()), r.byte()%4, r.byte()%4
	var id FileID
	recreated := "" // the path a dead id died at, which holds a new inode
	switch kind {
	case 0:
		var e Info
		if e, got = fs.Stat(spelled); got != nil {
			return got, m.resolve(p)
		}
		checkInfo(t, desc, m, e, p)
		id = e.ID
	case 1:
		if len(dead) > 0 {
			id = dead[pick%len(dead)]
		}
	case 2:
		var again []FileID
		for _, d := range dead {
			if _, ok := m[diedAt[d]]; ok {
				again = append(again, d)
			}
		}
		if len(again) > 0 {
			id = again[pick%len(again)]
			recreated = diedAt[id]
		}
	}
	if id == 0 {
		return nil, nil
	}
	desc = fmt.Sprintf("%s id %d sub %d", desc, id, sub)
	at := m.byID(id)
	if at == "" {
		want = ErrNotExist
	}
	n := m[at]
	switch sub {
	case 0:
		var e Info
		if e, got = fs.StatID(id); got == nil && (e.ID != id || e.Size != n.size || e.IsDir() != n.dir) {
			t.Fatalf("%s: StatID = %+v, model has %s %+v", desc, e, at, n)
		}
	case 1:
		if want == nil && n.dir {
			want = ErrIsDir
		}
		var c synthetic.Content
		if c, got = fs.ReadFileCheckID(id, nil); got == nil && !c.Equal(synthetic.NewUniform(n.seed, n.size)) {
			t.Fatalf("%s: ReadFileCheckID read %d bytes that are not %s's", desc, c.Len(), at)
		}
	case 2:
		var v string
		if v, got = fs.GetXattrID(id, modelKey); got == nil && v != n.attr {
			t.Fatalf("%s: GetXattrID = %q, model has %q on %s", desc, v, n.attr, at)
		}
	case 3:
		v := ""
		if val > 0 {
			v = fmt.Sprintf("v%d", val)
		}
		if got = fs.SetXattrID(id, modelKey, v); got == nil {
			n.attr = v
			m[at] = n
		}
	}
	if recreated != "" {
		// The old ID reached nothing: the new inode at its path keeps
		// its own identity, bytes and attribute.
		cur := m[recreated]
		e, err := fs.Stat(recreated)
		v, _ := fs.GetXattr(recreated, modelKey)
		if err != nil || e.ID == id || e.Size != cur.size || v != cur.attr {
			t.Fatalf("%s: after an op by the dead ID, %s is %+v (%v) with %s=%q; model has %+v", desc, recreated, e, err, modelKey, v, cur)
		}
	}
	return got, want
}

// checkInfo holds one Info to the model's inode at path p, recording
// the ID on first sight and demanding it never changes after.
func checkInfo(t testing.TB, desc string, m model, e Info, p string) {
	n := m[p]
	if n.id == 0 {
		n.id = e.ID
		m[p] = n
	}
	if e.Path != p || e.Name != path.Base(p) || e.IsDir() != n.dir || e.Size != n.size || e.ID != n.id {
		t.Fatalf("%s: got %+v, model has %s %+v", desc, e, p, n)
	}
}

func checkTree(t testing.TB, desc string, m model, walked []Info, want []string) {
	if len(walked) != len(want) {
		t.Fatalf("%s: walked %d inodes, model has %d", desc, len(walked), len(want))
	}
	for i, e := range walked {
		checkInfo(t, desc, m, e, want[i])
	}
}

func checkAll(t testing.TB, desc string, fs *FS, m model) {
	var walked []Info
	if err := fs.Walk("/", func(i Info) error { walked = append(walked, i); return nil }); err != nil {
		t.Fatalf("%s: walk: %v", desc, err)
	}
	checkTree(t, desc, m, walked, m.under("/"))
	var files, dirs, visited int
	var bytes int64
	for _, n := range m {
		if n.dir {
			dirs++
		} else {
			files++
			bytes += n.size
		}
	}
	if err := fs.VisitTree("/", func(FileID, int64, bool) { visited++ }); err != nil {
		t.Fatalf("%s: visit: %v", desc, err)
	}
	if fs.numFiles() != files || fs.ndirs != dirs || fs.NumInodes() != len(walked) || visited != len(walked) {
		t.Fatalf("%s: files %d dirs %d visited %d, model has %d/%d, walk saw %d",
			desc, fs.numFiles(), fs.ndirs, visited, files, dirs, len(walked))
	}
	if got := fs.TotalBytes(); got != bytes {
		t.Fatalf("%s: TotalBytes %d, model has %d", desc, got, bytes)
	}
	for _, e := range walked {
		if byID, err := fs.StatID(e.ID); err != nil || byID.Size != e.Size || byID.Type != e.Type {
			t.Fatalf("%s: StatID(%d) = %+v, %v; walk saw %+v", desc, e.ID, byID, err, e)
		}
	}
	// The arena's books: every linked inode is counted in its chunk, and
	// a released chunk is a full one with nothing linked.
	linked := 0
	for c, ch := range fs.chunks {
		linked += ch.linked
		if ch.nodes == nil && (ch.linked != 0 || int(fs.nextID>>chunkBits) == c && fs.nextID&chunkMask != chunkMask) {
			t.Fatalf("%s: chunk %d released with %d linked, nextID %d", desc, c, ch.linked, fs.nextID)
		}
	}
	if linked != len(walked) {
		t.Fatalf("%s: chunks count %d linked inodes, walk saw %d", desc, linked, len(walked))
	}
}

// renameCycle is the input that detached /n00 and hung it under itself
// before Rename refused it: mkdir -p /n00/n01, mv /n00 /n00/n01/n02.
var renameCycle = append(encodeOp(opMkdirAll, []byte{0, 1}), encodeOp(opRename, []byte{0}, []byte{0, 1, 2})...)

// arenaCycle creates enough inodes under /n00 and /n01 to fill two arena
// chunks past the root's, looks some up by ID, removes both trees (the
// model saw every ID at a periodic check, so all of them are known dead),
// looks up the dead — most in released chunks — and builds on top.
var arenaCycle = func() []byte {
	var ops []byte
	statID := func(pick int, p ...byte) {
		ops = append(append(ops, encodeOp(opStatID, p)...), byte(pick>>8), byte(pick))
	}
	for a := byte(0); a < 2; a++ {
		for b := byte(0); b < 40; b++ {
			ops = append(ops, encodeOp(opMkdirAll, []byte{a, b})...)
			for c := byte(0); c < 40; c++ {
				ops = append(append(ops, encodeOp(opWriteFile, []byte{a, b, c})...), c)
			}
			statID(0, a, b, b)
		}
	}
	ops = append(ops, encodeOp(opRemoveAll, []byte{0})...)
	statID(7, 1, 0, 0)
	ops = append(ops, encodeOp(opRemoveAll, []byte{1})...)
	for pick := 0; pick < 3282; pick += 100 {
		statID(pick)
	}
	ops = append(append(ops, encodeOp(opWriteFile, []byte{2})...), 1)
	statID(3281, 2)
	return append(ops, encodeOp(opWalk, nil)...)
}()

// recreateCycle writes /n00, learns its ID, removes it and writes /n00
// again, then sets, reads and stats by the dead ID (kind 2) and by the
// live one (kind 0): the dead ID must reach neither inode.
var recreateCycle = func() []byte {
	byID := func(kind, sub, val byte, p ...byte) []byte {
		return append(encodeOp(opByID, p), kind, 0, 0, sub, val)
	}
	var ops []byte
	ops = append(append(ops, encodeOp(opWriteFile, []byte{0})...), 5)
	ops = append(ops, byID(0, 3, 1, 0)...) // set k=v1 on the first /n00
	ops = append(ops, encodeOp(opRemove, []byte{0})...)
	ops = append(append(ops, encodeOp(opWriteFile, []byte{0})...), 9)
	for sub := byte(0); sub < 4; sub++ {
		ops = append(ops, byID(2, sub, 2, 0)...)
		ops = append(ops, byID(0, sub, 3, 0)...)
	}
	return ops
}()

func TestNamespaceModel(t *testing.T) {
	runOps(t, renameCycle)
	runOps(t, arenaCycle)
	runOps(t, recreateCycle)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6000)
		rng.Read(data)
		// Bias: a fifth of the streams never remove, so directories fill
		// to all forty names; the rest churn and compact.
		if seed%5 == 0 {
			for i := range data {
				if op := data[i] % numOps; op == opRemove || op == opRemoveAll {
					data[i] = opWriteFile
				}
			}
		}
		runOps(t, data)
	}
}

func FuzzNamespace(f *testing.F) {
	f.Add(renameCycle)
	f.Add(encodeOp(opMkdirAll, []byte{3, 3, 3}))
	var churn []byte // one directory filled past the index threshold, thinned, refilled, listed
	for i := byte(0); i < 30; i++ {
		churn = append(churn, encodeOp(opWriteFile, []byte{29 - i})...)
		churn = append(churn, 7)
	}
	for i := byte(0); i < 30; i += 2 {
		churn = append(churn, encodeOp(opRemove, []byte{i})...)
	}
	for i := byte(30); i < 40; i++ {
		churn = append(churn, encodeOp(opWriteFile, []byte{i})...)
		churn = append(churn, 9)
	}
	churn = append(churn, encodeOp(opReadDir, nil)...)
	f.Add(churn)
	f.Add([]byte{opWriteFile, 1, 5, 1, opRename, 1, 5, 0x80 | 2, 6, 7, opWalk, 0x80}) // unclean spellings
	f.Add(arenaCycle)
	f.Add(recreateCycle)
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

func fileName(i int) string { return fmt.Sprintf("/big/f%06d", i) }

// A flat directory of 100k entries filled in reverse name order, then
// thinned and refilled: every step must stay near-linear (an O(n^2)
// insert or rebuild-per-insert takes tens of seconds here).
func TestBigDirectoryReverseFill(t *testing.T) {
	const n = 100_000
	fs := newFS()
	fs.MkdirAll("/big")
	start := time.Now()
	for i := n - 1; i >= 0; i-- {
		if err := fs.WriteFile(fileName(i), synthetic.Content{}); err != nil {
			t.Fatal(err)
		}
	}
	list := func(want int) []Info {
		t.Helper()
		entries, err := fs.ReadDir("/big")
		if err != nil || len(entries) != want {
			t.Fatalf("ReadDir: %d entries, %v; want %d", len(entries), err, want)
		}
		if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name }) {
			t.Fatal("listing not in name order")
		}
		return entries
	}
	list(n)
	for i := 0; i < n; i += 2 {
		if err := fs.Remove(fileName(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+n/2; i++ { // in order: grows past the tombstones, squeezing them out
		fs.WriteFile(fileName(i), synthetic.Content{})
	}
	entries := list(n)
	if entries[0].Name != "f000001" || entries[n-1].Name != fmt.Sprintf("f%06d", n+n/2-1) {
		t.Errorf("listing runs %s..%s", entries[0].Name, entries[n-1].Name)
	}
	for i := 0; i < n+n/2; i++ {
		if want := i >= n || i%2 == 1; fs.Exists(fileName(i)) != want {
			t.Fatalf("%s: exists = %v, want %v", fileName(i), !want, want)
		}
	}
	if fs.numFiles() != n {
		t.Errorf("NumFiles = %d, want %d", fs.numFiles(), n)
	}
	// 0.2 s plain, 1.2 s under -race on 2 cores; a sorted slice with
	// memmove inserts took 22 s plain.
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("took %v: something here is quadratic", el)
	}
}

// One name created and removed over and over must not grow its
// directory: tombstones are squeezed out as the table would grow.
func TestChurnDoesNotGrowDirectory(t *testing.T) {
	fs := newFS()
	for i := 0; i < 20; i++ { // past the scan threshold, so the index is in play
		fs.WriteFile(fmt.Sprintf("/keep%02d", i), synthetic.Content{})
	}
	for i := 0; i < 10_000; i++ {
		fs.WriteFile("/lock", synthetic.Content{})
		if err := fs.Remove("/lock"); err != nil {
			t.Fatal(err)
		}
	}
	if d := fs.root.dir; len(d.ents) > 64 || len(d.index) > 128 {
		t.Errorf("root table grew to %d entries, index %d, for 20 live names", len(d.ents), len(d.index))
	}
}

func TestReadDirInOrderDoesNotSort(t *testing.T) {
	const n = 500
	fs := newFS()
	fs.MkdirAll("/job/d0000")
	for i := 0; i < n; i++ {
		fs.WriteFile(fmt.Sprintf("/job/d0000/f%06d", i), synthetic.NewUniform(uint64(i), 10))
	}
	n0, _, _ := fs.lookup("/job/d0000")
	d := n0.dir
	if !d.sorted {
		t.Fatal("names arrived in ascending order, yet the directory is marked unsorted")
	}
	first := &d.ents[0]
	allocs := testing.AllocsPerRun(20, func() {
		if entries, err := fs.ReadDir("/job/d0000"); err != nil || len(entries) != n {
			t.Fatalf("ReadDir: %d entries, %v", len(entries), err)
		}
	})
	if allocs > n+2 {
		t.Errorf("ReadDir of %d entries allocates %v times, want <= %d (a path each, the slice)", n, allocs, n+2)
	}
	if !d.sorted || first != &d.ents[0] {
		t.Error("listing an in-order directory rebuilt its table")
	}

	// Out of order: the first listing sorts in place, the second finds
	// it sorted and leaves it alone.
	fs.WriteFile("/job/d0000/a", synthetic.Content{})
	if d.sorted {
		t.Fatal("out-of-order arrival left the sorted bit set")
	}
	entries, _ := fs.ReadDir("/job/d0000")
	if !d.sorted || entries[0].Name != "a" || len(entries) != n+1 {
		t.Fatalf("after sorting listing: sorted=%v first=%q n=%d", d.sorted, entries[0].Name, len(entries))
	}
	first = &d.ents[0]
	fs.ReadDir("/job/d0000")
	if first != &d.ents[0] || !fs.Exists("/job/d0000/a") || !fs.Exists("/job/d0000/f000499") {
		t.Error("second listing moved the table or lost an entry")
	}
}

func TestVisitTreeOrderIsCreationOrder(t *testing.T) {
	build := func() (ids, created []FileID) {
		fs := newFS()
		note := func(p string) {
			info, err := fs.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			created = append(created, info.ID)
		}
		fs.MkdirAll("/t")
		note("/t")
		for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega", "b", "a", "c", "k", "j", "i"} {
			p := "/t/" + name
			if len(name) == 1 {
				fs.MkdirAll(p)
			} else {
				fs.WriteFile(p, synthetic.NewUniform(1, 1))
			}
			note(p)
		}
		fs.VisitTree("/t", func(id FileID, _ int64, _ bool) { ids = append(ids, id) })

		// A listing sorts the out-of-order directory; from then on the
		// entry positions VisitTree goes by are in name order.
		listed, _ := fs.ReadDir("/t")
		byName := []FileID{created[0]}
		for _, e := range listed {
			byName = append(byName, e.ID)
		}
		var after []FileID
		fs.VisitTree("/t", func(id FileID, _ int64, _ bool) { after = append(after, id) })
		if fmt.Sprint(after) != fmt.Sprint(byName) {
			t.Errorf("VisitTree after a listing went %v, name order is %v", after, byName)
		}
		return ids, created
	}
	ids, created := build()
	if fmt.Sprint(ids) != fmt.Sprint(created) {
		t.Errorf("VisitTree order %v, creation order %v", ids, created)
	}
	if again, _ := build(); fmt.Sprint(again) != fmt.Sprint(ids) {
		t.Errorf("second run visited %v, first %v", again, ids)
	}
}

// Walk's fn may block while other actors change the directory under it
// (pfs.Scan sleeps inside fn). Whatever they do — remove, replace,
// rename, add enough to grow or compact the table, list it so that it is
// sorted — the walk visits in name order, once each, exactly the entries
// that were there when it entered the directory and still are when it
// reaches them.
func TestWalkUnderMutation(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := newFS()
		fs.MkdirAll("/d")
		names := 20 + rng.Intn(400)
		name := func() string { return fmt.Sprintf("/d/n%03d", rng.Intn(names)) }
		mutate := func(ops int) {
			for ; ops > 0; ops-- {
				switch p := name(); rng.Intn(16) {
				case 0, 1, 2, 3, 4, 5:
					fs.WriteFile(p, synthetic.Content{})
				case 6, 7, 8:
					fs.Remove(p)
				case 9, 10:
					fs.Remove(p)
					fs.WriteFile(p, synthetic.Content{}) // same name, another inode
				case 11, 12:
					fs.Rename(p, name())
				case 13, 14:
					fs.ReadDir("/d")
				case 15:
					if rng.Intn(40) == 0 {
						fs.RemoveAll("/d")
						fs.MkdirAll("/d")
					}
				}
			}
		}
		intact := func(p string, id FileID) bool {
			cur, err := fs.Stat(p)
			return err == nil && cur.ID == id
		}
		mutate(rng.Intn(3 * names)) // leaves tombstones and, usually, an unsorted table

		snap := map[string]FileID{} // the directory as the walk enters it
		gone := map[string]bool{}   // snapshot entries removed or replaced at some point since
		visited := map[string]bool{}
		last := ""
		err := fs.Walk("/d", func(e Info) error {
			if e.Path == "/d" {
				for i := 0; i < names; i++ {
					p := fmt.Sprintf("/d/n%03d", i)
					if cur, err := fs.Stat(p); err == nil {
						snap[p] = cur.ID
					}
				}
				return nil
			}
			switch {
			case e.Path <= last:
				return fmt.Errorf("visited %s after %s", e.Path, last)
			case snap[e.Path] != e.ID:
				return fmt.Errorf("visited %s (id %d), which the directory did not hold on entry (id %d)", e.Path, e.ID, snap[e.Path])
			case !intact(e.Path, e.ID):
				return fmt.Errorf("visited %s, removed or replaced before the walk reached it", e.Path)
			}
			last, visited[e.Path] = e.Path, true
			mutate(rng.Intn(12))
			for p, id := range snap {
				if !intact(p, id) {
					gone[p] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for p := range snap {
			if !gone[p] && !visited[p] {
				t.Fatalf("seed %d: %s was there from entry to end and was not visited", seed, p)
			}
		}
	}
}

// Rename of a directory to a path beneath itself used to succeed,
// detaching the subtree from the root and hanging it under itself.
func TestRenameIntoOwnSubtree(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/f", synthetic.NewUniform(1, 1))
	for _, newp := range []string{"/a/b/c", "/a/b", "/a/x", "a//b/./c"} {
		if err := fs.Rename("/a", newp); !errors.Is(err, errInvalid) {
			t.Errorf("Rename(/a, %s) = %v, want ErrInvalid", newp, err)
		}
	}
	walked := 0
	fs.Walk("/", func(Info) error { walked++; return nil })
	if fs.NumInodes() != 4 || walked != 4 {
		t.Errorf("NumInodes = %d, walked %d, want 4 and 4", fs.NumInodes(), walked)
	}
	if err := fs.Rename("/a", "/a"); err != nil {
		t.Errorf("renaming a path to itself: %v, want nil (POSIX: no-op)", err)
	}
	if err := fs.Rename("/a", "/ab"); err != nil || !fs.Exists("/ab/b") || !fs.Exists("/ab/f") {
		t.Errorf("a sibling sharing the prefix is not beneath: %v", err)
	}
}

func TestInfoXattrReadsCurrentAttributes(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", synthetic.NewUniform(1, 1))
	info, _ := fs.Stat("/f")
	if _, ok := info.xattr("owner"); ok {
		t.Error("attribute present before it was set")
	}
	fs.SetXattr("/f", "owner", "alice")
	if v, ok := info.xattr("owner"); !ok || v != "alice" {
		t.Errorf("Xattr after SetXattr = %q, %v; want the inode's current value", v, ok)
	}
	if _, ok := (Info{}).xattr("owner"); ok {
		t.Error("zero Info has attributes")
	}
	if n := testing.AllocsPerRun(100, func() { fs.Stat("/f") }); n != 0 {
		t.Errorf("Stat allocates %v times, want 0", n)
	}
}
