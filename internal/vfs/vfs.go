// Package vfs implements an in-memory POSIX-like file tree used as the
// namespace layer of the simulated parallel file systems. It supplies
// inodes with stable file IDs (the GPFS-style unique identifier the
// synchronous deleter depends on), directories, rename/unlink/truncate,
// extended attributes (used by the HSM layer for stub state), and
// deterministic sorted directory listings.
//
// File data is a synthetic.Content, so files of any size cost O(extents)
// of memory. vfs carries no timing model: timing belongs to the pfs and
// device layers above it.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/synthetic"
)

// Errors returned by FS operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrInvalid  = errors.New("vfs: invalid argument")
)

// FileID is the per-filesystem unique identifier of an inode. It never
// changes across renames and is never reused, mirroring the GPFS file
// ID the paper's synchronous deleter looks up.
type FileID uint64

// FileType distinguishes inode kinds.
type FileType int

// Inode kinds.
const (
	TypeFile FileType = iota
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
	ATime   time.Duration // virtual time of last data read
	Xattrs  map[string]string
}

// IsDir reports whether the inode is a directory.
func (i Info) IsDir() bool { return i.Type == TypeDir }

type node struct {
	id       FileID
	typ      FileType
	size     int64
	modTime  time.Duration
	atime    time.Duration
	content  synthetic.Content
	children map[string]*node // directories only
	xattrs   map[string]string
	nlink    int // reference count from directory entries
}

// FS is a single in-memory file tree. FS methods are not safe for
// concurrent use from multiple OS threads; in simulation exactly one
// actor runs at a time, so no locking is needed or provided.
type FS struct {
	name   string
	root   *node
	nextID FileID
	byID   []*node // index = FileID (IDs are dense and never reused)
	pot    []node  // chunked inode arena (stable pointers)
	// memoDir/memoNode cache the directory of the last successful
	// multi-segment resolution. Per-file operations in bulk loads and
	// tree walks hit the same directory run after run, so the memo
	// replaces a full segment walk with one string compare plus one
	// child lookup. Any operation that unlinks or moves nodes clears it.
	memoDir  string
	memoNode *node
	now      func() time.Duration
	nfiles   int
	ndirs    int
}

// New creates an empty file system. now supplies virtual timestamps and
// may be nil (timestamps then stay zero).
func New(name string, now func() time.Duration) *FS {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	fs := &FS{name: name, now: now, byID: make([]*node, 1)} // index 0 unused
	fs.root = fs.newNode(TypeDir)
	fs.ndirs = 1
	return fs
}

// Name reports the file system's label.
func (fs *FS) Name() string { return fs.name }

// NumFiles reports the number of regular files.
func (fs *FS) NumFiles() int { return fs.nfiles }

// NumDirs reports the number of directories (including the root).
func (fs *FS) NumDirs() int { return fs.ndirs }

// NumInodes reports the total inode count.
func (fs *FS) NumInodes() int { return fs.nfiles + fs.ndirs }

func (fs *FS) newNode(t FileType) *node {
	fs.nextID++
	// Inodes come from a chunked arena: one heap allocation per 1024
	// inodes instead of one per file, which mattered at paper scale.
	if len(fs.pot) == 0 {
		fs.pot = make([]node, 1024)
	}
	n := &fs.pot[0]
	fs.pot = fs.pot[1:]
	*n = node{id: fs.nextID, typ: t, modTime: fs.now(), nlink: 1}
	if t == TypeDir {
		n.children = make(map[string]*node)
	}
	fs.byID = append(fs.byID, n)
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

// resolve walks a clean rooted path to its node, without allocating.
// On a miss it reports the failing condition via notDir/ok; lookup
// turns that into the error.
func (fs *FS) resolve(p string) (n *node, notDir, ok bool) {
	if p == "/" {
		return fs.root, false, true
	}
	if d := len(fs.memoDir); d > 0 && len(p) > d+1 && p[d] == '/' &&
		p[:d] == fs.memoDir && strings.IndexByte(p[d+1:], '/') < 0 {
		n, ok := fs.memoNode.children[p[d+1:]]
		return n, false, ok
	}
	cur := fs.root
	parent := cur
	rest := p[1:]
	for len(rest) > 0 {
		var part string
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		} else {
			part, rest = rest, ""
		}
		if cur.typ != TypeDir {
			return nil, true, false
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, false, false
		}
		parent = cur
		cur = next
	}
	if parent != fs.root {
		fs.memoDir = p[:strings.LastIndexByte(p, '/')]
		fs.memoNode = parent
	}
	return cur, false, true
}

// lookup resolves p to its node.
func (fs *FS) lookup(p string) (*node, error) {
	p = clean(p)
	n, notDir, ok := fs.resolve(p)
	if !ok {
		if notDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return n, nil
}

// lookupParent resolves the parent directory of p and the leaf name.
func (fs *FS) lookupParent(p string) (*node, string, error) {
	p = clean(p)
	if p == "/" {
		return nil, "", fmt.Errorf("%w: cannot address root's parent", ErrInvalid)
	}
	i := strings.LastIndexByte(p, '/')
	dir, leaf := p[:i], p[i+1:]
	if dir == "" {
		dir = "/"
	}
	if dir == fs.memoDir && fs.memoNode != nil {
		return fs.memoNode, leaf, nil
	}
	parent, err := fs.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != TypeDir {
		return nil, "", fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	if dir != "/" {
		fs.memoDir, fs.memoNode = dir, parent
	}
	return parent, leaf, nil
}

// Mkdir creates a single directory. The parent must exist.
func (fs *FS) Mkdir(p string) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if _, ok := parent.children[leaf]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	parent.children[leaf] = fs.newNode(TypeDir)
	parent.modTime = fs.now()
	fs.ndirs++
	return nil
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
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		} else {
			part, rest = rest, ""
		}
		next, ok := cur.children[part]
		if !ok {
			next = fs.newNode(TypeDir)
			cur.children[part] = next
			cur.modTime = fs.now()
			fs.ndirs++
		} else if next.typ != TypeDir {
			return fmt.Errorf("%w: %s", ErrNotDir, part)
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the regular file at p with content.
func (fs *FS) WriteFile(p string, content synthetic.Content) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	existing, ok := parent.children[leaf]
	if ok {
		if existing.typ == TypeDir {
			return fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		existing.content = content
		existing.size = content.Len()
		existing.modTime = fs.now()
		return nil
	}
	n := fs.newNode(TypeFile)
	n.content = content
	n.size = content.Len()
	parent.children[leaf] = n
	parent.modTime = fs.now()
	fs.nfiles++
	return nil
}

// WriteFileReserve writes content at p like WriteFileID, but first
// calls reserve with the inode about to be replaced (ID zero on fresh
// create). If reserve errors the namespace is left untouched. This
// lets the pfs layer run its capacity check with the same single path
// resolution that performs the write.
func (fs *FS) WriteFileReserve(p string, content synthetic.Content, reserve func(prevID FileID, prevSize int64) error) (FileID, error) {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return 0, err
	}
	existing, ok := parent.children[leaf]
	if ok && existing.typ == TypeDir {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if ok {
		if err := reserve(existing.id, existing.size); err != nil {
			return 0, err
		}
		existing.content = content
		existing.size = content.Len()
		existing.modTime = fs.now()
		return existing.id, nil
	}
	if err := reserve(0, 0); err != nil {
		return 0, err
	}
	n := fs.newNode(TypeFile)
	n.content = content
	n.size = content.Len()
	parent.children[leaf] = n
	parent.modTime = fs.now()
	fs.nfiles++
	return n.id, nil
}

// ReadFile returns the content of the regular file at p, updating its
// access time (the signal ILM age/frequency policies consume).
func (fs *FS) ReadFile(p string) (synthetic.Content, error) {
	n, err := fs.lookup(p)
	if err != nil {
		return synthetic.Content{}, err
	}
	if n.typ == TypeDir {
		return synthetic.Content{}, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	n.atime = fs.now()
	return n.content, nil
}

// WriteAt overwrites [off, off+data.Len()) of the file at p, extending
// the file with the data if it writes at exactly EOF.
func (fs *FS) WriteAt(p string, off int64, data synthetic.Content) error {
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
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
		return fmt.Errorf("%w: sparse write at %d past size %d", ErrInvalid, off, n.size)
	}
	n.size = n.content.Len()
	n.modTime = fs.now()
	return nil
}

// Truncate cuts the file at p to length (which must not exceed the
// current size).
func (fs *FS) Truncate(p string, length int64) error {
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if length < 0 || length > n.size {
		return fmt.Errorf("%w: truncate to %d of %d", ErrInvalid, length, n.size)
	}
	n.content = n.content.Truncate(length)
	n.size = length
	n.modTime = fs.now()
	return nil
}

// Stat returns the Info for p.
func (fs *FS) Stat(p string) (Info, error) {
	n, err := fs.lookup(p)
	if err != nil {
		return Info{}, err
	}
	return fs.info(clean(p), n), nil
}

// Lookup resolves p to its inode's identity, type and size without
// building an Info — no name, no xattr copy. It is what the pfs layer
// needs to find a file's residency record on every data operation.
func (fs *FS) Lookup(p string) (FileID, FileType, int64, error) {
	n, err := fs.lookup(p)
	if err != nil {
		return 0, 0, 0, err
	}
	return n.id, n.typ, n.size, nil
}

// StatID returns the Info for a file ID, with an empty Path (IDs are
// path-independent).
func (fs *FS) StatID(id FileID) (Info, error) {
	var n *node
	if int(id) < len(fs.byID) {
		n = fs.byID[id]
	}
	if n == nil {
		return Info{}, fmt.Errorf("%w: id %d", ErrNotExist, id)
	}
	return fs.info("", n), nil
}

func (fs *FS) info(p string, n *node) Info {
	var xa map[string]string
	if len(n.xattrs) > 0 {
		xa = make(map[string]string, len(n.xattrs))
		for k, v := range n.xattrs {
			xa[k] = v
		}
	}
	return Info{
		Name:    path.Base(p),
		Path:    p,
		ID:      n.id,
		Type:    n.typ,
		Size:    n.size,
		ModTime: n.modTime,
		ATime:   n.atime,
		Xattrs:  xa,
	}
}

// ReadDir lists the entries of directory p sorted by name.
func (fs *FS) ReadDir(p string) ([]Info, error) {
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Info, len(names))
	base := clean(p)
	if base == "/" {
		base = ""
	}
	for i, name := range names {
		out[i] = fs.info(base+"/"+name, n.children[name])
	}
	return out, nil
}

// Remove unlinks the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.typ == TypeDir && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	delete(parent.children, leaf)
	parent.modTime = fs.now()
	fs.memoDir, fs.memoNode = "", nil
	fs.drop(n)
	return nil
}

// RemoveAll removes p and everything below it. Removing a missing path
// is not an error.
func (fs *FS) RemoveAll(p string) error {
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	n, ok := parent.children[leaf]
	if !ok {
		return nil
	}
	delete(parent.children, leaf)
	parent.modTime = fs.now()
	fs.memoDir, fs.memoNode = "", nil
	fs.dropTree(n)
	return nil
}

func (fs *FS) drop(n *node) {
	n.nlink--
	if n.nlink > 0 {
		return
	}
	fs.byID[n.id] = nil
	if n.typ == TypeDir {
		fs.ndirs--
	} else {
		fs.nfiles--
	}
}

func (fs *FS) dropTree(n *node) {
	if n.typ == TypeDir {
		for _, child := range n.children {
			fs.dropTree(child)
		}
	}
	fs.drop(n)
}

// Rename moves oldp to newp. An existing file (not directory) at newp
// is replaced, as in POSIX rename.
func (fs *FS) Rename(oldp, newp string) error {
	oparent, oleaf, err := fs.lookupParent(oldp)
	if err != nil {
		return err
	}
	n, ok := oparent.children[oleaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldp)
	}
	nparent, nleaf, err := fs.lookupParent(newp)
	if err != nil {
		return err
	}
	if existing, ok := nparent.children[nleaf]; ok {
		if existing == n {
			return nil
		}
		if existing.typ == TypeDir {
			if len(existing.children) > 0 {
				return fmt.Errorf("%w: %s", ErrNotEmpty, newp)
			}
		} else if n.typ == TypeDir {
			return fmt.Errorf("%w: %s", ErrNotDir, newp)
		}
		fs.drop(existing)
	}
	delete(oparent.children, oleaf)
	nparent.children[nleaf] = n
	oparent.modTime = fs.now()
	nparent.modTime = fs.now()
	fs.memoDir, fs.memoNode = "", nil
	return nil
}

// SetXattr sets a named extended attribute on p. An empty value deletes
// the attribute.
func (fs *FS) SetXattr(p, key, value string) error {
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if value == "" {
		delete(n.xattrs, key)
		return nil
	}
	if n.xattrs == nil {
		n.xattrs = make(map[string]string)
	}
	n.xattrs[key] = value
	return nil
}

// GetXattr reads a named extended attribute of p ("" if absent).
func (fs *FS) GetXattr(p, key string) (string, error) {
	n, err := fs.lookup(p)
	if err != nil {
		return "", err
	}
	return n.xattrs[key], nil
}

// Exists reports whether p resolves.
func (fs *FS) Exists(p string) bool {
	_, err := fs.lookup(p)
	return err == nil
}

// WalkFunc visits one inode during Walk. Returning a non-nil error
// stops the walk and propagates the error.
type WalkFunc func(info Info) error

// Walk visits p and everything below it in deterministic depth-first
// order (directories before their sorted children).
func (fs *FS) Walk(p string, fn WalkFunc) error {
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	return fs.walk(clean(p), n, fn)
}

func (fs *FS) walk(p string, n *node, fn WalkFunc) error {
	if err := fn(fs.info(p, n)); err != nil {
		return err
	}
	if n.typ != TypeDir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	base := p
	if base == "/" {
		base = ""
	}
	for _, name := range names {
		if err := fs.walk(base+"/"+name, n.children[name], fn); err != nil {
			return err
		}
	}
	return nil
}

// VisitTree calls fn(id, size, dir) for every inode under p, p itself
// included, without constructing paths or Infos — the allocation-free
// enumeration backing bulk-removal accounting. Visit order is
// unspecified (callers must be order-insensitive; size and identity
// accounting is).
func (fs *FS) VisitTree(p string, fn func(id FileID, size int64, dir bool)) error {
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	fs.visitTree(n, fn)
	return nil
}

func (fs *FS) visitTree(n *node, fn func(id FileID, size int64, dir bool)) {
	fn(n.id, n.size, n.typ == TypeDir)
	for _, c := range n.children {
		fs.visitTree(c, fn)
	}
}

// TotalBytes sums the sizes of all regular files.
func (fs *FS) TotalBytes() int64 {
	var total int64
	_ = fs.Walk("/", func(info Info) error {
		if !info.IsDir() {
			total += info.Size
		}
		return nil
	})
	return total
}
