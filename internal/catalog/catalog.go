// Package catalog implements the paper's first future-work item (§7):
// "enhance the proposed COTS Parallel Archive System with the
// multi-dimensional metadata searching capabilities". It is a
// searchable index over the archive's namespace — project, owner, size,
// modification time, residency state, tape volume, and free-form tags —
// answering conjunctive multi-attribute queries through per-dimension
// indexes, so users can find candidate files without tree-walking the
// archive (and without the recall storms a grep would cause).
package catalog

import (
	"sort"
	"strings"
	"time"

	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// Entry is one cataloged file.
type Entry struct {
	Path    string
	Project string
	Owner   string
	Size    int64
	ModTime time.Duration
	State   pfs.MigState
	Volume  string // tape volume for migrated files ("" otherwise)
	Tags    map[string]string
}

// Catalog is the multi-dimensional index. All mutating and querying
// operations charge a small indexed-lookup cost on the clock.
type Catalog struct {
	clock     *simtime.Clock
	queryCost time.Duration

	entries   map[string]*Entry
	byProject map[string]map[string]*Entry
	byOwner   map[string]map[string]*Entry
	byVolume  map[string]map[string]*Entry
	byState   map[pfs.MigState]map[string]*Entry

	queries int
}

// New creates an empty catalog. queryCost is charged once per Search.
func New(clock *simtime.Clock, queryCost time.Duration) *Catalog {
	return &Catalog{
		clock:     clock,
		queryCost: queryCost,
		entries:   make(map[string]*Entry),
		byProject: make(map[string]map[string]*Entry),
		byOwner:   make(map[string]map[string]*Entry),
		byVolume:  make(map[string]map[string]*Entry),
		byState:   make(map[pfs.MigState]map[string]*Entry),
	}
}

// Len reports the number of cataloged files.
func (c *Catalog) Len() int { return len(c.entries) }

// Queries reports the number of searches served.
func (c *Catalog) Queries() int { return c.queries }

// Upsert inserts or replaces an entry.
func (c *Catalog) Upsert(e Entry) {
	if old, ok := c.entries[e.Path]; ok {
		c.unindex(old)
	}
	ent := &e
	c.entries[e.Path] = ent
	c.index(ent)
}

// Remove drops a path from the catalog (no-op if absent).
func (c *Catalog) Remove(path string) {
	if old, ok := c.entries[path]; ok {
		c.unindex(old)
		delete(c.entries, path)
	}
}

// Get returns one entry by exact path.
func (c *Catalog) Get(path string) (Entry, bool) {
	e, ok := c.entries[path]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

func addIdx(m map[string]map[string]*Entry, key string, e *Entry) {
	if key == "" {
		return
	}
	set := m[key]
	if set == nil {
		set = make(map[string]*Entry)
		m[key] = set
	}
	set[e.Path] = e
}

func delIdx(m map[string]map[string]*Entry, key string, e *Entry) {
	if key == "" {
		return
	}
	if set := m[key]; set != nil {
		delete(set, e.Path)
		if len(set) == 0 {
			delete(m, key)
		}
	}
}

func (c *Catalog) index(e *Entry) {
	addIdx(c.byProject, e.Project, e)
	addIdx(c.byOwner, e.Owner, e)
	addIdx(c.byVolume, e.Volume, e)
	set := c.byState[e.State]
	if set == nil {
		set = make(map[string]*Entry)
		c.byState[e.State] = set
	}
	set[e.Path] = e
}

func (c *Catalog) unindex(e *Entry) {
	delIdx(c.byProject, e.Project, e)
	delIdx(c.byOwner, e.Owner, e)
	delIdx(c.byVolume, e.Volume, e)
	if set := c.byState[e.State]; set != nil {
		delete(set, e.Path)
	}
}

// Query is a conjunction of attribute constraints; zero values mean
// "any".
type Query struct {
	Project        string
	Owner          string
	Volume         string
	State          *pfs.MigState // nil = any
	MinSize        int64
	MaxSize        int64 // 0 = unbounded
	ModifiedAfter  time.Duration
	ModifiedBefore time.Duration // 0 = unbounded
	PathPrefix     string
	Tags           map[string]string
	Limit          int // 0 = unlimited
}

// Search answers a query, returning matches sorted by path. The most
// selective equality index narrows the candidate set; the remaining
// constraints filter it.
func (c *Catalog) Search(q Query) []Entry {
	c.queries++
	if c.queryCost > 0 {
		c.clock.Sleep(c.queryCost)
	}
	candidates := c.pickCandidates(q)
	var out []Entry
	for _, e := range candidates {
		if matches(e, q) {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// pickCandidates chooses the smallest applicable index set.
func (c *Catalog) pickCandidates(q Query) map[string]*Entry {
	best := c.entries
	consider := func(set map[string]*Entry) {
		if set != nil && len(set) < len(best) {
			best = set
		}
	}
	if q.Project != "" {
		set := c.byProject[q.Project]
		if set == nil {
			return nil
		}
		consider(set)
	}
	if q.Owner != "" {
		set := c.byOwner[q.Owner]
		if set == nil {
			return nil
		}
		consider(set)
	}
	if q.Volume != "" {
		set := c.byVolume[q.Volume]
		if set == nil {
			return nil
		}
		consider(set)
	}
	if q.State != nil {
		set := c.byState[*q.State]
		if set == nil {
			return nil
		}
		consider(set)
	}
	return best
}

func matches(e *Entry, q Query) bool {
	if q.Project != "" && e.Project != q.Project {
		return false
	}
	if q.Owner != "" && e.Owner != q.Owner {
		return false
	}
	if q.Volume != "" && e.Volume != q.Volume {
		return false
	}
	if q.State != nil && e.State != *q.State {
		return false
	}
	if e.Size < q.MinSize {
		return false
	}
	if q.MaxSize > 0 && e.Size > q.MaxSize {
		return false
	}
	if e.ModTime < q.ModifiedAfter {
		return false
	}
	if q.ModifiedBefore > 0 && e.ModTime > q.ModifiedBefore {
		return false
	}
	if q.PathPrefix != "" && !strings.HasPrefix(e.Path, q.PathPrefix) {
		return false
	}
	for k, v := range q.Tags {
		if e.Tags[k] != v {
			return false
		}
	}
	return true
}

// IndexArchive (re)builds the catalog from a full policy scan of the
// archive file system, joining tape volumes in from the shadow
// database. projectOf maps a path to its project label (nil uses the
// first path component). It returns the number of files indexed; the
// scan charges the calibrated per-inode cost.
func IndexArchive(c *Catalog, fs *pfs.FS, shadow *metadb.DB, projectOf func(string) string) (int, error) {
	if projectOf == nil {
		projectOf = func(p string) string {
			p = strings.TrimPrefix(p, "/")
			if i := strings.IndexByte(p, '/'); i >= 0 {
				return p[:i]
			}
			return p
		}
	}
	n := 0
	var migrated []string
	err := fs.Scan(func(i pfs.Info) error {
		if i.IsDir() {
			return nil
		}
		owner, _ := i.Xattr("owner")
		c.Upsert(Entry{
			Path:    i.Path,
			Project: projectOf(i.Path),
			Owner:   owner,
			Size:    i.Size,
			ModTime: i.ModTime,
			State:   i.State,
		})
		if i.State != pfs.Resident {
			migrated = append(migrated, i.Path)
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if shadow != nil && len(migrated) > 0 {
		for _, rec := range shadow.ByPaths(migrated) {
			if e, ok := c.entries[rec.Path]; ok {
				c.unindex(e)
				e.Volume = rec.Volume
				c.index(e)
			}
		}
	}
	return n, nil
}
