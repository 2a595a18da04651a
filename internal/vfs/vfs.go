// Package vfs implements an in-memory POSIX-like file tree used as the
// namespace layer of the simulated parallel file systems. It supplies
// inodes with stable file IDs (the GPFS-style unique identifier the
// synchronous deleter depends on), directories, rename and unlink,
// extended attributes (used by the HSM layer for stub state), and
// deterministic directory listings.
//
// Inodes live by value in an arena of 1024-inode chunks addressed by
// file ID. IDs are dense and never reused, but storage follows what is
// live: each chunk counts its linked inodes, and a chunk whose IDs are
// all handed out is let go when the last of them is removed. Trees are
// created and removed together, so whole chunks die together; a lone
// survivor keeps its chunk's 72 KB. A directory inode points to an
// ordered compact table (dir.go): entries {name, inode} in one slice in
// insertion order plus, above eight entries, an open-addressed index of
// 4-byte positions.
//
// Ordering: ReadDir, ReadDirAs and Walk list by name — a directory
// filled in name order (as bulk loaders do) is listed as it stands, any
// other is sorted by the first listing after an out-of-order arrival.
// VisitTree and RemoveAllFunc go by entry position: insertion order
// until such a sort, name order after. Never by the hash.
//
// A FileID is the handle the glue carries. A mover that has resolved a
// path once — a walk's listing, a policy scan, a migration candidate —
// keeps the ID and reaches the inode through the ID forms (StatID,
// ReadFileCheckID, GetXattrID, SetXattrID) without walking the path
// again, the way an HSM reaches GPFS by DMAPI handle. An ID form runs the
// same body as its path form; an ID whose inode has been removed is
// ErrNotExist, even when a new file now stands at the old path.
//
// File data is a synthetic.Content, so files of any size cost O(extents)
// of memory. vfs carries no timing model: timing belongs to the pfs and
// device layers above it.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"time"

	"repro/internal/synthetic"
)

// Errors returned by FS operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	errNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	errNotEmpty = errors.New("vfs: directory not empty")
	errInvalid  = errors.New("vfs: invalid argument")
)

// FileID is the per-filesystem unique identifier of an inode. It never
// changes across renames and is never reused, mirroring the GPFS file
// ID the paper's synchronous deleter looks up.
type FileID uint64

// FileType distinguishes inode kinds.
type FileType uint8

// Inode kinds.
const (
	typeFile FileType = iota
	TypeDir
)

func (t FileType) String() string {
	if t == TypeDir {
		return "dir"
	}
	return "file"
}

// Info is the stat result for an inode.
type Info struct {
	Name    string
	Path    string
	ID      FileID
	Type    FileType
	Size    int64
	ModTime time.Duration // virtual time
}

// IsDir reports whether the inode is a directory.
func (i Info) IsDir() bool { return i.Type == TypeDir }

type node struct {
	id      FileID
	size    int64
	modTime time.Duration
	content synthetic.Content
	dir     *dir       // directories only
	xattrs  *xattrList // nil until the first SetXattr: most inodes carry none
	typ     FileType
	linked  bool // named by a directory entry; false = removed
}

// xattr is one extended attribute. An inode carries a handful (stub
// digests, chunk marks, trash bookkeeping), read by key and listed never,
// so they are pairs in insertion order, not a map: a scan of a few keys
// beats hashing one.
type xattr struct{ key, value string }

// xattrList is an inode's attributes. The first lives inline, so that
// the common inode with one (a migrated file's digest, a chunk file's
// state) costs one 64-byte allocation; the list then moves to room for
// 6, then 18, because a chunked file in flight carries up to six.
type xattrList struct {
	l     []xattr // views first until a second attribute arrives
	first [1]xattr
}

func (n *node) xattr(key string) (string, bool) {
	if n.xattrs != nil {
		for _, a := range n.xattrs.l {
			if a.key == key {
				return a.value, true
			}
		}
	}
	return "", false
}

// setXattr sets key to value; an empty value deletes key.
func (n *node) setXattr(key, value string) {
	if n.xattrs == nil {
		if value == "" {
			return
		}
		n.xattrs = new(xattrList)
		n.xattrs.l = n.xattrs.first[:0]
	}
	l := n.xattrs.l
	for i := range l {
		if l[i].key != key {
			continue
		}
		if value == "" {
			n.xattrs.l = slices.Delete(l, i, i+1)
		} else {
			l[i].value = value
		}
		return
	}
	if value == "" {
		return
	}
	if len(l) == cap(l) {
		// append's doubling from one would reallocate three times on
		// the way to six.
		l = append(make([]xattr, 0, max(6, 3*len(l))), l...)
	}
	n.xattrs.l = append(l, xattr{key, value})
}

// Inodes are allocated 1<<chunkBits at a time, not one per file.
const (
	chunkBits = 10
	chunkMask = 1<<chunkBits - 1
)

// chunk is 1<<chunkBits consecutive IDs' worth of arena.
type chunk struct {
	nodes  []node // nil once every inode in the chunk has been removed
	linked int    // inodes not yet removed
}

// FS is a single in-memory file tree. FS methods are not safe for
// concurrent use from multiple OS threads; in simulation exactly one
// actor runs at a time, so no locking is needed or provided.
type FS struct {
	root   *node
	nextID FileID
	chunks []chunk // inode arena: ID id is chunks[id>>chunkBits].nodes[id&chunkMask]
	// memoDir/memoNode cache the directory of the last successful
	// multi-segment resolution. Per-file operations in bulk loads and
	// tree walks hit the same directory run after run, so the memo
	// replaces a full segment walk, and the scan for a canonical path,
	// with one string compare plus one child lookup. Any operation that
	// unlinks or moves nodes clears it.
	memoDir  string
	memoNode *node
	now      func() time.Duration
	nfiles   int
	ndirs    int
}

// New creates an empty file system. The first argument, a label, is
// not kept. now supplies virtual timestamps and may be nil (timestamps
// then stay zero).
func New(_ string, now func() time.Duration) *FS {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	fs := &FS{now: now}
	fs.root = fs.newNode(TypeDir)
	fs.ndirs = 1
	return fs
}

// NumInodes reports the total inode count.
func (fs *FS) NumInodes() int { return fs.nfiles + fs.ndirs }

func (fs *FS) newNode(t FileType) *node {
	fs.nextID++ // slot 0 of the first chunk stays unused
	if int(fs.nextID>>chunkBits) == len(fs.chunks) {
		fs.chunks = append(fs.chunks, chunk{nodes: make([]node, 1<<chunkBits)})
	}
	c := &fs.chunks[fs.nextID>>chunkBits]
	c.linked++
	n := &c.nodes[fs.nextID&chunkMask]
	*n = node{id: fs.nextID, typ: t, modTime: fs.now(), linked: true}
	if t == TypeDir {
		n.dir = &dir{sorted: true}
	}
	return n
}

// clean canonicalizes p to a rooted slash path. Paths that are already
// canonical — the overwhelming case in simulation hot loops, which
// resolve millions of generated "/job/dNNNN/fNNNNNN" names — are
// returned as-is without allocating.
func clean(p string) string {
	if isClean(p) {
		return p
	}
	return path.Clean("/" + p)
}

// isClean reports whether p is a rooted slash path with no empty, "."
// or ".." segments and no trailing slash (root excepted) — i.e. whether
// path.Clean("/"+p) would return p unchanged.
func isClean(p string) bool {
	if len(p) == 0 || p[0] != '/' {
		return false
	}
	if len(p) == 1 {
		return true
	}
	if p[len(p)-1] == '/' {
		return false
	}
	segStart := 1
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			switch seg := p[segStart:i]; seg {
			case "", ".", "..":
				return false
			}
			segStart = i + 1
		}
	}
	return true
}

// memoLeaf reports whether p names a direct child of the memoised
// directory, and the child's name. Such a p is clean if the name is.
func (fs *FS) memoLeaf(p string) (string, bool) {
	d := len(fs.memoDir)
	if d == 0 || len(p) <= d+1 || p[d] != '/' || p[:d] != fs.memoDir {
		return "", false
	}
	leaf := p[d+1:]
	if leaf == "." || leaf == ".." || strings.IndexByte(leaf, '/') >= 0 {
		return "", false
	}
	return leaf, true
}

// resolve walks a clean rooted path to its node, without allocating
// (a miss is the bare sentinel; lookup wraps it).
func (fs *FS) resolve(p string) (*node, error) {
	cur := fs.root
	parent := cur
	rest := p[1:]
	for len(rest) > 0 {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if cur.typ != TypeDir {
			return nil, errNotDir
		}
		next := cur.dir.get(part)
		if next == nil {
			return nil, ErrNotExist
		}
		parent = cur
		cur = next
	}
	if parent != fs.root {
		fs.memoDir = p[:strings.LastIndexByte(p, '/')]
		fs.memoNode = parent
	}
	return cur, nil
}

// lookup resolves p to its node and canonical path.
func (fs *FS) lookup(p string) (n *node, _ string, err error) {
	if leaf, ok := fs.memoLeaf(p); ok {
		n, err = fs.memoNode.dir.get(leaf), ErrNotExist
	} else {
		p = clean(p)
		n, err = fs.resolve(p)
	}
	if n == nil {
		return nil, p, fmt.Errorf("%w: %s", err, p)
	}
	return n, p, nil
}

// lookupFile resolves p to a regular file's node.
func (fs *FS) lookupFile(p string) (*node, error) {
	n, _, err := fs.lookup(p)
	if err == nil && n.typ == TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return n, err
}

// lookupParent resolves the parent directory of p and the leaf name.
func (fs *FS) lookupParent(p string) (*node, string, error) {
	if leaf, ok := fs.memoLeaf(p); ok {
		return fs.memoNode, leaf, nil
	}
	p = clean(p)
	if p == "/" {
		return nil, "", fmt.Errorf("%w: cannot address root's parent", errInvalid)
	}
	i := strings.LastIndexByte(p, '/')
	dir, leaf := p[:i], p[i+1:]
	if dir == "" {
		dir = "/"
	}
	parent, _, err := fs.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != TypeDir {
		return nil, "", fmt.Errorf("%w: %s", errNotDir, dir)
	}
	if dir != "/" {
		fs.memoDir, fs.memoNode = dir, parent
	}
	return parent, leaf, nil
}

// MkdirAll creates p and any missing ancestors.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	cur := fs.root
	rest := p[1:]
	for len(rest) > 0 {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		next := cur.dir.get(part)
		if next == nil {
			next = fs.newNode(TypeDir)
			cur.dir.put(part, next)
			cur.modTime = fs.now()
			fs.ndirs++
		} else if next.typ != TypeDir {
			return fmt.Errorf("%w: %s", errNotDir, part)
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the regular file at p with content.
func (fs *FS) WriteFile(p string, content synthetic.Content) error {
	_, err := fs.WriteFileReserve(p, content, nil)
	return err
}

// WriteFileReserve writes content at p like WriteFile and returns the
// file's ID, but first calls reserve (if not nil) with the inode about
// to be replaced (ID zero on fresh create). If reserve errors the
// namespace is left untouched. This lets the pfs layer run its capacity
// check with the same single path resolution that performs the write.
func (fs *FS) WriteFileReserve(p string, content synthetic.Content, reserve func(prevID FileID, prevSize int64) error) (FileID, error) {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return 0, err
	}
	n := parent.dir.get(leaf)
	if n != nil && n.typ == TypeDir {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if reserve != nil {
		var prevID FileID
		var prevSize int64
		if n != nil {
			prevID, prevSize = n.id, n.size
		}
		if err := reserve(prevID, prevSize); err != nil {
			return 0, err
		}
	}
	if n == nil {
		n = fs.newNode(typeFile)
		parent.dir.put(leaf, n)
		parent.modTime = n.modTime
		fs.nfiles++
	} else {
		n.modTime = fs.now()
	}
	n.content = content
	n.size = content.Len()
	return n.id, nil
}

// ReadFileCheck returns the content of the regular file at p, updating
// its access time (the signal ILM age/frequency policies consume).
// check (if not nil) sees the
// file's ID once p has resolved to a regular file, and if it errors the
// read fails with that error and the access time is left alone (how the
// pfs layer refuses an offline stub in the read's own resolution).
func (fs *FS) ReadFileCheck(p string, check func(id FileID) error) (synthetic.Content, error) {
	n, err := fs.lookupFile(p)
	if err != nil {
		return synthetic.Content{}, err
	}
	return fs.read(n, check)
}

// ReadFileCheckID is ReadFileCheck of the regular file with ID id.
func (fs *FS) ReadFileCheckID(id FileID, check func(id FileID) error) (synthetic.Content, error) {
	n, err := fs.byID(id)
	if err == nil && n.typ == TypeDir {
		err = fmt.Errorf("%w: id %d", ErrIsDir, id)
	}
	if err != nil {
		return synthetic.Content{}, err
	}
	return fs.read(n, check)
}

func (fs *FS) read(n *node, check func(id FileID) error) (synthetic.Content, error) {
	if check != nil {
		if err := check(n.id); err != nil {
			return synthetic.Content{}, err
		}
	}
	return n.content, nil
}

// WriteAt overwrites [off, off+data.Len()) of the file at p, extending
// the file with the data if it writes at exactly EOF.
func (fs *FS) WriteAt(p string, off int64, data synthetic.Content) error {
	n, err := fs.lookupFile(p)
	if err != nil {
		return err
	}
	switch {
	case off == n.size:
		n.content = synthetic.Concat(n.content, data)
	case off+data.Len() <= n.size:
		n.content = n.content.Overwrite(off, data)
	case off < n.size:
		// Straddles EOF: truncate then append.
		n.content = synthetic.Concat(n.content.Truncate(off), data)
	default:
		return fmt.Errorf("%w: sparse write at %d past size %d", errInvalid, off, n.size)
	}
	n.size = n.content.Len()
	n.modTime = fs.now()
	return nil
}

// Stat returns the Info for p.
func (fs *FS) Stat(p string) (Info, error) {
	n, p, err := fs.lookup(p)
	if err != nil {
		return Info{}, err
	}
	return info(p, path.Base(p), n), nil
}

// Lookup resolves p to its inode's identity, type and size without
// building an Info. It is what the pfs layer needs to find a file's
// residency record on every data operation.
func (fs *FS) Lookup(p string) (FileID, FileType, int64, error) {
	n, _, err := fs.lookup(p)
	if err != nil {
		return 0, 0, 0, err
	}
	return n.id, n.typ, n.size, nil
}

// StatID returns the Info for a file ID, with an empty Name and Path
// (IDs are path-independent).
func (fs *FS) StatID(id FileID) (Info, error) {
	n, err := fs.byID(id)
	if err != nil {
		return Info{}, err
	}
	return info("", "", n), nil
}

// byID returns the linked inode with ID id. A removed inode does not
// resolve, although its chunk may still hold it.
func (fs *FS) byID(id FileID) (*node, error) {
	if id != 0 && id <= fs.nextID {
		if c := fs.chunks[id>>chunkBits]; c.nodes != nil && c.nodes[id&chunkMask].linked {
			return &c.nodes[id&chunkMask], nil
		}
	}
	return nil, fmt.Errorf("%w: id %d", ErrNotExist, id)
}

func info(p, name string, n *node) Info {
	return Info{
		Name:    name,
		Path:    p,
		ID:      n.id,
		Type:    n.typ,
		Size:    n.size,
		ModTime: n.modTime,
	}
}

// ReadDir lists the entries of directory p sorted by name.
func (fs *FS) ReadDir(p string) ([]Info, error) {
	return ReadDirAs(fs, p, func(e Info) Info { return e })
}

// ReadDirAs is ReadDir building its one slice out of what conv makes of
// each entry (the pfs layer's listings carry residency beside the Info).
func ReadDirAs[T any](fs *FS, p string, conv func(Info) T) ([]T, error) {
	n, base, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", errNotDir, p)
	}
	if base == "/" {
		base = ""
	}
	out := make([]T, 0, n.dir.live)
	for _, e := range n.dir.byName() {
		if e.n != nil {
			out = append(out, conv(info(base+"/"+e.name, e.name, e.n)))
		}
	}
	return out, nil
}

// Remove unlinks the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n := parent.dir.get(leaf)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.typ == TypeDir && n.dir.live > 0 {
		return fmt.Errorf("%w: %s", errNotEmpty, p)
	}
	fs.unlink(parent, leaf)
	fs.drop(n)
	return nil
}

// RemoveAll removes p and everything below it. Removing a missing path
// is not an error.
func (fs *FS) RemoveAll(p string) error {
	return fs.RemoveAllFunc(p, func(FileID, int64) {})
}

// RemoveAllFunc is RemoveAll calling released with the ID and size of
// every inode it unlinks, p's own last — the one pass in which the pfs
// layer returns pool space.
func (fs *FS) RemoveAllFunc(p string, released func(id FileID, size int64)) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	if n := fs.unlink(parent, leaf); n != nil {
		fs.dropTree(n, released)
	}
	return nil
}

// unlink takes leaf (if present) out of parent and returns its inode.
func (fs *FS) unlink(parent *node, leaf string) *node {
	n := parent.dir.del(leaf)
	if n != nil {
		parent.modTime = fs.now()
		fs.memoDir, fs.memoNode = "", nil
	}
	return n
}

// drop removes the unlinked inode n: it gives up what it held, and if
// it was the last one linked in a chunk with no IDs left to hand out,
// the arena lets the chunk go. The ID is never reused. n itself stays
// readable for whoever still holds it (a suspended Walk): the collector
// keeps the chunk until it is done.
func (fs *FS) drop(n *node) {
	if n.typ == TypeDir {
		fs.ndirs--
	} else {
		fs.nfiles--
	}
	n.linked = false
	n.content, n.dir, n.xattrs = synthetic.Content{}, nil, nil
	c := &fs.chunks[n.id>>chunkBits]
	c.linked--
	if c.linked == 0 && fs.nextID >= n.id|chunkMask {
		c.nodes = nil
	}
}

func (fs *FS) dropTree(n *node, released func(id FileID, size int64)) {
	if n.typ == TypeDir {
		for _, e := range n.dir.ents {
			if e.n != nil {
				fs.dropTree(e.n, released)
			}
		}
	}
	released(n.id, n.size)
	fs.drop(n)
}

// Rename moves oldp to newp. An existing file (not directory) at newp
// is replaced, as in POSIX rename; renaming a path to itself does
// nothing, a directory to a path beneath itself is ErrInvalid (EINVAL).
func (fs *FS) Rename(oldp, newp string) error {
	oparent, oleaf, err := fs.lookupParent(oldp)
	if err != nil {
		return err
	}
	n := oparent.dir.get(oleaf)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, oldp)
	}
	if op, np := clean(oldp), clean(newp); n.typ == TypeDir && len(np) > len(op) && np[len(op)] == '/' && np[:len(op)] == op {
		return fmt.Errorf("%w: rename %s beneath itself to %s", errInvalid, oldp, newp)
	}
	nparent, nleaf, err := fs.lookupParent(newp)
	if err != nil {
		return err
	}
	if existing := nparent.dir.get(nleaf); existing != nil {
		if existing == n {
			return nil
		}
		if existing.typ == TypeDir {
			if existing.dir.live > 0 {
				return fmt.Errorf("%w: %s", errNotEmpty, newp)
			}
		} else if n.typ == TypeDir {
			return fmt.Errorf("%w: %s", errNotDir, newp)
		}
		fs.drop(nparent.dir.del(nleaf))
	}
	fs.unlink(oparent, oleaf)
	nparent.dir.put(nleaf, n)
	nparent.modTime = fs.now()
	return nil
}

// SetXattr sets a named extended attribute on p. An empty value deletes
// the attribute.
func (fs *FS) SetXattr(p, key, value string) error {
	n, _, err := fs.lookup(p)
	if err != nil {
		return err
	}
	n.setXattr(key, value)
	return nil
}

// SetXattrID is SetXattr on the inode with ID id.
func (fs *FS) SetXattrID(id FileID, key, value string) error {
	n, err := fs.byID(id)
	if err != nil {
		return err
	}
	n.setXattr(key, value)
	return nil
}

// GetXattr reads a named extended attribute of p ("" if absent).
func (fs *FS) GetXattr(p, key string) (string, error) {
	n, _, err := fs.lookup(p)
	if err != nil {
		return "", err
	}
	v, _ := n.xattr(key)
	return v, nil
}

// GetXattrID is GetXattr of the inode with ID id.
func (fs *FS) GetXattrID(id FileID, key string) (string, error) {
	n, err := fs.byID(id)
	if err != nil {
		return "", err
	}
	v, _ := n.xattr(key)
	return v, nil
}

// Exists reports whether p resolves.
func (fs *FS) Exists(p string) bool {
	_, _, err := fs.lookup(p)
	return err == nil
}

// Walk visits p and everything below it in deterministic depth-first
// order (directories before their children, children by name), calling
// fn with each inode; a non-nil error from fn stops the walk and is
// returned. fn may
// block while other actors change the tree (pfs.Scan does): a directory
// is walked as it stood when the walk entered it, less the entries
// removed or replaced before the walk reaches them.
func (fs *FS) Walk(p string, fn func(Info) error) error {
	n, p, err := fs.lookup(p)
	if err != nil {
		return err
	}
	return walk(p, path.Base(p), n, fn)
}

func walk(p, name string, n *node, fn func(Info) error) error {
	if err := fn(info(p, name, n)); err != nil {
		return err
	}
	if n.typ != TypeDir {
		return nil
	}
	if p == "/" {
		p = ""
	}
	// fn may block and the directory change meanwhile: tombstones show
	// in ents, and once the table has moved to another slice (growth,
	// compaction, a sort) each name is looked up again.
	d := n.dir
	ents := d.byName()
	for i := range ents {
		e := ents[i]
		if (len(d.ents) == 0 || &d.ents[0] != &ents[0]) && d.get(e.name) != e.n {
			continue
		}
		if e.n != nil && e.n.linked {
			if err := walk(p+"/"+e.name, e.name, e.n, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// VisitTree calls fn(id, size, dir) for every inode under p, p itself
// included and first, without constructing paths or Infos — the
// allocation-free enumeration backing bulk-removal accounting. Children
// are visited by entry position (see the package comment).
func (fs *FS) VisitTree(p string, fn func(id FileID, size int64, dir bool)) error {
	n, _, err := fs.lookup(p)
	if err != nil {
		return err
	}
	visitTree(n, fn)
	return nil
}

func visitTree(n *node, fn func(id FileID, size int64, dir bool)) {
	fn(n.id, n.size, n.typ == TypeDir)
	if n.typ == TypeDir {
		for _, e := range n.dir.ents {
			if e.n != nil {
				visitTree(e.n, fn)
			}
		}
	}
}

// TotalBytes sums the sizes of all regular files.
func (fs *FS) TotalBytes() int64 {
	var total int64
	visitTree(fs.root, func(_ FileID, size int64, dir bool) {
		if !dir {
			total += size
		}
	})
	return total
}
