// Package pfs simulates a parallel file system in the mold of GPFS (the
// paper's archive tier) and Panasas (its scratch tier): a vfs namespace
// plus storage pools with capacity and aggregate-bandwidth accounting,
// metadata operation costs, a fast batched inode scan (the engine under
// GPFS ILM policies), and DMAPI-style migration state per file
// (resident / premigrated / migrated stub), which is what the HSM layer
// punches and recalls.
//
// pfs deliberately does NOT charge data-transfer time inside its
// namespace operations: data movement belongs to the movers (PFTool
// workers, HSM migrators), which resolve routes across the full path —
// source pool, trunk, NIC, destination pool — through the shared
// data-path fabric. pfs wires each pool's aggregate bandwidth into that
// fabric as a named link ("<fs>/<pool>") between the pool endpoint
// ("<fs>:<pool>") and the hubs named in Config.Attach.
//
// Metadata time has one billing mechanism: a charge takes one of the
// MetaParallel service slots, sleeps ops x MetaOpCost, and releases the
// slot. A single operation (Stat, ReadContent, Punch, ...) is a charge
// of one. A bulk path pays for its whole run first — b := fs.Bill(n) —
// and then performs the n operations through the returned Batch, which
// counts them down and panics if over-drawn. Against an uncontended
// service (the plants run <= ~30 metadata actors on 64 slots) a batch
// ends at exactly the virtual time n single operations would. The
// differences are these, and WriteFiles has always had them: the slot
// is held for the whole batch, so with more actors than slots a waiter
// queues behind the batch rather than interleaving with its files; the
// full n is billed even if an operation fails part-way; and the
// operations all happen at the batch's end time (access times, and
// the instant other actors see the new state).
//
// File IDs: a caller that already holds a file's vfs.FileID (from a
// listing, a scan or a Stat) reaches the file through the ID forms —
// StatID, ReadContentID, SetPremigratedID, PunchID, RestoreID, StateID,
// GetXattrID, SetXattrID — instead of resolving its path again. An ID
// form runs the same body as its path form and bills exactly like it:
// the same metadata slot, the same operation count, ending at the same
// virtual instant. Only the namespace lookup differs, and an ID whose
// file is gone is vfs.ErrNotExist even if a new file took its path.
package pfs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/vfs"
)

// Errors specific to the pfs layer (namespace errors come from vfs).
var (
	ErrOffline  = errors.New("pfs: file data is migrated offline")
	errNoSpace  = errors.New("pfs: storage pool out of space")
	errNoPool   = errors.New("pfs: no such storage pool")
	errBadState = errors.New("pfs: invalid migration state transition")
)

// MigState is the DMAPI-style per-file data residency state.
type MigState uint8

// Residency states.
const (
	Resident    MigState = iota // data on disk only
	Premigrated                 // data on disk and on the backend
	Migrated                    // stub: data on the backend only
)

func (s MigState) String() string {
	switch s {
	case Resident:
		return "resident"
	case Premigrated:
		return "premigrated"
	case Migrated:
		return "migrated"
	}
	return fmt.Sprintf("MigState(%d)", int(s))
}

// PoolSpec describes one storage pool.
type PoolSpec struct {
	Name     string
	Capacity int64   // bytes
	Rate     float64 // aggregate bandwidth, bytes per second
	// StreamRate caps a single client stream (one file descriptor's
	// worth of striped I/O): an aggregate pool of many NSD servers
	// serves many streams at Rate total, but one stream only reaches
	// the few NSDs its stripes land on. Zero means uncapped.
	StreamRate float64
}

// Config describes a file system instance.
type Config struct {
	Name         string
	Pools        []PoolSpec
	DefaultPool  string
	MetaOpCost   time.Duration // per metadata operation
	MetaParallel int           // concurrent metadata operations served
	ScanPerInode time.Duration // policy-scan cost per inode
	ScanParallel int           // scan pipeline width
	// Attach names the fabric hubs every pool link connects to. Empty
	// means {fabric.Clients}: the file system is mounted by the FTA
	// nodes directly (the archive tier). A scratch tier on the far side
	// of the trunk attaches at fabric.Compute instead.
	Attach []string
}

// GPFSConfig returns the archive-tier file system used in the paper's
// deployment: a 100 TB fast FC pool plus a slow pool for small files,
// with metadata rates calibrated to "one million inodes in ten minutes"
// for policy scans.
func GPFSConfig(name string) Config {
	return Config{
		Name: name,
		Pools: []PoolSpec{
			{Name: "fast", Capacity: 100e12, Rate: 3.0e9, StreamRate: 800e6},
			{Name: "slow", Capacity: 100e12, Rate: 0.8e9, StreamRate: 300e6},
		},
		DefaultPool:  "fast",
		MetaOpCost:   200 * time.Microsecond,
		MetaParallel: 64,
		ScanPerInode: 600 * time.Microsecond, // 1e6 inodes / 10 min
		ScanParallel: 1,
	}
}

// PanasasConfig returns the scratch-tier file system: one large fast
// pool; the supercomputer's scratch is never the bottleneck in the
// archive path.
func PanasasConfig(name string) Config {
	return Config{
		Name: name,
		Pools: []PoolSpec{
			{Name: "scratch", Capacity: 2000e12, Rate: 5.0e9, StreamRate: 800e6},
		},
		DefaultPool:  "scratch",
		MetaOpCost:   150 * time.Microsecond,
		MetaParallel: 64,
		ScanPerInode: 600 * time.Microsecond,
		ScanParallel: 1,
	}
}

// Pool is a live storage pool.
type Pool struct {
	Spec     PoolSpec
	endpoint string
	used     int64
	idx      uint8 // position in FS.pools
}

// Used reports bytes resident in the pool.
func (p *Pool) Used() int64 { return p.used }

// free reports remaining capacity.
func (p *Pool) free() int64 { return p.Spec.Capacity - p.used }

// Endpoint returns the pool's fabric endpoint name ("<fs>:<pool>"),
// usable as a source or destination in fabric.Route.
func (p *Pool) Endpoint() string { return p.endpoint }

// StreamRate reports the single-stream ceiling (0 = uncapped).
func (p *Pool) StreamRate() float64 { return p.Spec.StreamRate }

// Info combines namespace stat with pfs residency data.
type Info struct {
	vfs.Info
	Pool  string
	State MigState
}

// fileMeta is one file's residency record: two bytes, held by value in
// a table the file ID indexes. A removed file's record is zeroed, not
// freed: these two bytes are all the file system keeps per ID ever
// issued (vfs gives the inodes themselves back a chunk at a time).
type fileMeta struct {
	pool  uint8 // position in FS.pools + 1; 0 = no record (a directory, or unlinked)
	state MigState
}

// FS is one simulated parallel file system.
type FS struct {
	clock   *simtime.Clock
	fab     *fabric.Fabric
	cfg     Config
	ns      *vfs.FS
	pools   []*Pool // declaration order
	defPool *Pool
	meta    []fileMeta // index = vfs.FileID (dense, never reused)
	metaRes *simtime.Resource
}

// New creates a file system from cfg on the given clock.
func New(clock *simtime.Clock, cfg Config) *FS {
	if cfg.MetaParallel <= 0 {
		cfg.MetaParallel = 1
	}
	if cfg.ScanParallel <= 0 {
		cfg.ScanParallel = 1
	}
	if len(cfg.Pools) >= 255 {
		panic("pfs: more pools than a residency record can name")
	}
	fs := &FS{
		clock:   clock,
		fab:     fabric.Of(clock),
		cfg:     cfg,
		ns:      vfs.New(cfg.Name, func() time.Duration { return clock.Now() }),
		metaRes: simtime.NewResource(clock, cfg.MetaParallel),
	}
	attach := cfg.Attach
	if len(attach) == 0 {
		attach = []string{fabric.Clients}
	}
	for _, ps := range cfg.Pools {
		ep := cfg.Name + ":" + ps.Name
		link := fs.fab.AddLink(cfg.Name+"/"+ps.Name, ps.Rate, ep, attach[0])
		for _, hub := range attach[1:] {
			fs.fab.AttachLink(link, ep, hub)
		}
		fs.pools = append(fs.pools, &Pool{
			Spec:     ps,
			endpoint: ep,
			idx:      uint8(len(fs.pools)),
		})
	}
	var err error
	if fs.defPool, err = fs.Pool(cfg.DefaultPool); err != nil {
		panic("pfs: default pool not in pool list")
	}
	return fs
}

// Clock returns the simulation clock the FS runs on.
func (fs *FS) Clock() *simtime.Clock { return fs.clock }

// Fabric returns the shared data-path fabric the pools are wired into.
func (fs *FS) Fabric() *fabric.Fabric { return fs.fab }

// Pool returns the named pool (a scan: file systems have two or three).
func (fs *FS) Pool(name string) (*Pool, error) {
	for _, p := range fs.pools {
		if p.Spec.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", errNoPool, name)
}

// DefaultPool returns the placement default.
func (fs *FS) DefaultPool() *Pool { return fs.defPool }

// metaOf returns the residency record for id, or nil if none. The
// pointer is into the table: it is good until the next setMeta.
func (fs *FS) metaOf(id vfs.FileID) *fileMeta {
	if int(id) < len(fs.meta) && fs.meta[id].pool != 0 {
		return &fs.meta[id]
	}
	return nil
}

// poolOf returns the pool a residency record names.
func (fs *FS) poolOf(m *fileMeta) *Pool { return fs.pools[m.pool-1] }

// setMeta installs the residency record for id, growing the dense table
// as file IDs are allocated.
func (fs *FS) setMeta(id vfs.FileID, pl *Pool, state MigState) {
	for int(id) >= len(fs.meta) {
		fs.meta = append(fs.meta, fileMeta{})
	}
	fs.meta[id] = fileMeta{pool: pl.idx + 1, state: state}
}

// chargeMeta bills ops metadata operations against the metadata service
// as one charge: one service slot, held for ops x MetaOpCost.
func (fs *FS) chargeMeta(ops int) {
	if fs.cfg.MetaOpCost <= 0 || ops <= 0 {
		return
	}
	fs.metaRes.Acquire(1)
	fs.clock.Sleep(time.Duration(ops) * fs.cfg.MetaOpCost)
	fs.metaRes.Release(1)
}

// Batch is a run of pre-paid metadata operations (see FS.Bill). Its
// methods do what the FS methods of the same name do, minus the charge.
type Batch struct {
	fs   *FS
	left int
}

// Bill pays for n metadata operations up front, in one charge, and
// returns the handle that spends them. Bulk paths — a PFTool worker
// reading or landing a batch of small files, an HSM daemon restoring a
// recalled volume — bill this way: n files cost one clock event instead
// of n. See the package comment for what that means under contention.
func (fs *FS) Bill(n int) Batch {
	fs.chargeMeta(n)
	return Batch{fs: fs, left: n}
}

// spend takes one operation from the batch. Drawing more than was
// billed is a caller bug (it would be free metadata work), not an input
// condition, so it panics.
func (b *Batch) spend() *FS {
	if b.left <= 0 {
		panic("pfs: metadata batch over-drawn")
	}
	b.left--
	return b.fs
}

// MkdirAll creates a directory chain (one metadata operation).
func (fs *FS) MkdirAll(p string) error {
	fs.chargeMeta(1)
	return fs.ns.MkdirAll(p)
}

// WriteFile creates or replaces a file in the default pool.
func (fs *FS) WriteFile(p string, content synthetic.Content) error {
	return fs.WriteFileIn(p, content, fs.cfg.DefaultPool)
}

// WriteFileIn creates or replaces a file, placing its data in the named
// pool. It charges metadata cost but not data-transfer time (see the
// package comment). Capacity is enforced.
func (fs *FS) WriteFileIn(p string, content synthetic.Content, pool string) error {
	b := fs.Bill(1)
	return b.writeFileIn(p, content, pool)
}

// writeFileIn is FS.WriteFileIn on a pre-paid batch.
func (b *Batch) writeFileIn(p string, content synthetic.Content, pool string) error {
	fs := b.spend()
	pl, err := fs.Pool(pool)
	if err != nil {
		return err
	}
	var oldSize int64
	var oldMeta *fileMeta
	id, err := fs.ns.WriteFileReserve(p, content, func(prevID vfs.FileID, prevSize int64) error {
		if prevID != 0 {
			oldMeta = fs.metaOf(prevID)
			if oldMeta != nil && oldMeta.state != Migrated {
				oldSize = prevSize
			}
		}
		need := content.Len() - oldSize
		if oldMeta != nil && fs.poolOf(oldMeta) != pl {
			need = content.Len() // moving pools: old accounting released below
		}
		if need > pl.free() {
			return fmt.Errorf("%w: pool %s needs %d, free %d", errNoSpace, pool, need, pl.free())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if oldMeta != nil && oldMeta.state != Migrated {
		fs.poolOf(oldMeta).used -= oldSize
	}
	pl.used += content.Len()
	fs.setMeta(id, pl, Resident)
	return nil
}

// FileSpec names one file for bulk creation.
type FileSpec struct {
	Path    string
	Content synthetic.Content
	Pool    string // empty = default pool
}

// WriteFiles creates many files, billing metadata cost as one batch —
// the bulk path PFTool workers use when landing a batch of small files.
func (fs *FS) WriteFiles(specs []FileSpec) error {
	b := fs.Bill(len(specs))
	for _, s := range specs {
		pool := s.Pool
		if pool == "" {
			pool = fs.cfg.DefaultPool
		}
		if err := b.writeFileIn(s.Path, s.Content, pool); err != nil {
			return fmt.Errorf("writing %s: %w", s.Path, err)
		}
	}
	return nil
}

// ref names the file a pfs call acts on: by path, or by ID. The path
// and ID form of an operation differ only in the ref they pass to its
// one body.
type ref struct {
	path string
	id   vfs.FileID
	byID bool
}

func (f ref) String() string {
	if f.byID {
		return fmt.Sprintf("id %d", f.id)
	}
	return f.path
}

// lookup resolves f to its ID, type and size (free: a dcache hit).
func (fs *FS) lookup(f ref) (vfs.FileID, vfs.FileType, int64, error) {
	if !f.byID {
		return fs.ns.Lookup(f.path)
	}
	vi, err := fs.ns.StatID(f.id)
	return f.id, vi.Type, vi.Size, err
}

// ReadContent returns the file's data. Migrated stubs return ErrOffline;
// callers must recall through the HSM first (or use a recall-aware
// wrapper), exactly like a DMAPI read event.
func (fs *FS) ReadContent(p string) (synthetic.Content, error) {
	b := fs.Bill(1)
	return b.readContent(ref{path: p})
}

// ReadContentID is ReadContent of the file with ID id.
func (fs *FS) ReadContentID(id vfs.FileID) (synthetic.Content, error) {
	b := fs.Bill(1)
	return b.readContent(ref{id: id, byID: true})
}

// ReadContent is FS.ReadContent on a pre-paid batch.
func (b *Batch) ReadContent(p string) (synthetic.Content, error) {
	return b.readContent(ref{path: p})
}

// ReadContentID is FS.ReadContentID on a pre-paid batch.
func (b *Batch) ReadContentID(id vfs.FileID) (synthetic.Content, error) {
	return b.readContent(ref{id: id, byID: true})
}

func (b *Batch) readContent(f ref) (synthetic.Content, error) {
	fs := b.spend()
	online := func(id vfs.FileID) error {
		if m := fs.metaOf(id); m != nil && m.state == Migrated {
			return fmt.Errorf("%w: %v", ErrOffline, f)
		}
		return nil
	}
	if f.byID {
		return fs.ns.ReadFileCheckID(f.id, online)
	}
	return fs.ns.ReadFileCheck(f.path, online)
}

// WriteAt writes into an existing resident file (append or overwrite),
// updating pool accounting.
func (fs *FS) WriteAt(p string, off int64, data synthetic.Content) error {
	fs.chargeMeta(1)
	id, _, size, err := fs.ns.Lookup(p)
	if err != nil {
		return err
	}
	m := fs.metaOf(id)
	if m == nil {
		return fmt.Errorf("pfs: no pool metadata for %s", p)
	}
	if m.state == Migrated {
		return fmt.Errorf("%w: %s", ErrOffline, p)
	}
	grow := off + data.Len() - size
	if grow > 0 {
		pl := fs.poolOf(m)
		if grow > pl.free() {
			return fmt.Errorf("%w: pool %s", errNoSpace, pl.Spec.Name)
		}
		pl.used += grow
	}
	// Any write dirties a premigrated copy back to resident.
	m.state = Resident
	return fs.ns.WriteAt(p, off, data)
}

// Stat returns combined namespace + residency information.
func (fs *FS) Stat(p string) (Info, error) {
	fs.chargeMeta(1)
	return fs.decorated(fs.ns.Stat(p))
}

// StatID is Stat of the file with ID id. The Info's Name and Path are
// empty: an ID does not know which path reached it.
func (fs *FS) StatID(id vfs.FileID) (Info, error) {
	fs.chargeMeta(1)
	return fs.decorated(fs.ns.StatID(id))
}

func (fs *FS) decorated(vi vfs.Info, err error) (Info, error) {
	if err != nil {
		return Info{}, err
	}
	return fs.decorate(vi), nil
}

func (fs *FS) decorate(vi vfs.Info) Info {
	out := Info{Info: vi}
	if m := fs.metaOf(vi.ID); m != nil {
		out.Pool = fs.poolOf(m).Spec.Name
		out.State = m.state
	}
	return out
}

// ReadDir lists a directory, billing metadata cost for the whole batch
// in one charge (bulk stat — how PFTool's ReadDir processes work).
func (fs *FS) ReadDir(p string) ([]Info, error) {
	out, err := vfs.ReadDirAs(fs.ns, p, func(e vfs.Info) Info { return Info{Info: e} })
	fs.chargeMeta(1 + len(out)/64) // amortized bulk readdir
	for i := range out {
		out[i] = fs.decorate(out[i].Info) // residency as of after the charge
	}
	return out, err
}

// Remove unlinks a file or empty directory, releasing pool space for
// resident data.
func (fs *FS) Remove(p string) error {
	fs.chargeMeta(1)
	id, _, size, err := fs.ns.Lookup(p)
	if err != nil {
		return err
	}
	if err := fs.ns.Remove(p); err != nil {
		return err
	}
	fs.releaseMeta(id, size)
	return nil
}

// RemoveAll removes a subtree, releasing pool space.
func (fs *FS) RemoveAll(p string) error {
	// Count first (the metadata charge precedes the removal, as one
	// batch), then unlink, releasing pool/meta accounting per inode as
	// it goes. Both passes enumerate without building paths or Infos: a
	// campaign tears down millions of archived stubs this way.
	count := 0
	if err := fs.ns.VisitTree(p, func(vfs.FileID, int64, bool) { count++ }); err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		return err
	}
	fs.chargeMeta(count)
	return fs.ns.RemoveAllFunc(p, fs.releaseMeta)
}

// releaseMeta drops an unlinked inode's residency record and returns
// its resident bytes to the pool.
func (fs *FS) releaseMeta(id vfs.FileID, size int64) {
	m := fs.metaOf(id)
	if m == nil {
		return
	}
	if m.state != Migrated {
		fs.poolOf(m).used -= size
	}
	*m = fileMeta{}
}

// Rename moves a file or tree (one metadata operation; IDs persist).
// A replaced destination file has its pool space released.
func (fs *FS) Rename(oldp, newp string) error {
	fs.chargeMeta(1)
	srcID, _, _, err := fs.ns.Lookup(oldp)
	if err != nil {
		return err
	}
	dstID, dstType, dstSize, derr := fs.ns.Lookup(newp)
	replaced := derr == nil && dstType != vfs.TypeDir && dstID != srcID
	if err := fs.ns.Rename(oldp, newp); err != nil {
		return err
	}
	if replaced {
		fs.releaseMeta(dstID, dstSize)
	}
	return nil
}

// Exists reports whether p resolves (free: a dcache hit).
func (fs *FS) Exists(p string) bool { return fs.ns.Exists(p) }

// SetXattr sets an extended attribute (used by HSM bookkeeping).
func (fs *FS) SetXattr(p, k, v string) error { return fs.ns.SetXattr(p, k, v) }

// SetXattrID is SetXattr on the file with ID id.
func (fs *FS) SetXattrID(id vfs.FileID, k, v string) error { return fs.ns.SetXattrID(id, k, v) }

// GetXattr reads an extended attribute.
func (fs *FS) GetXattr(p, k string) (string, error) { return fs.ns.GetXattr(p, k) }

// GetXattrID is GetXattr of the file with ID id.
func (fs *FS) GetXattrID(id vfs.FileID, k string) (string, error) { return fs.ns.GetXattrID(id, k) }

// Walk visits the subtree without metadata charges (callers doing
// policy-grade scans should use Scan, which bills correctly).
func (fs *FS) Walk(p string, fn func(Info) error) error {
	return fs.ns.Walk(p, func(vi vfs.Info) error {
		return fn(fs.decorate(vi))
	})
}

// NumInodes reports the total inode count.
func (fs *FS) NumInodes() int { return fs.ns.NumInodes() }

// TotalBytes reports the logical size of all files.
func (fs *FS) TotalBytes() int64 { return fs.ns.TotalBytes() }

// --- Migration state transitions (driven by the HSM layer) ---

// SetPremigrated marks a resident file premigrated (a valid copy now
// exists on the backend; data remains on disk).
func (fs *FS) SetPremigrated(p string) error {
	b := fs.Bill(1)
	return b.premigrate(ref{path: p})
}

// SetPremigratedID is SetPremigrated of the file with ID id.
func (fs *FS) SetPremigratedID(id vfs.FileID) error {
	b := fs.Bill(1)
	return b.premigrate(ref{id: id, byID: true})
}

func (b *Batch) premigrate(f ref) error {
	return b.transition(f, func(m *fileMeta, size int64) error {
		if m.state == Migrated {
			return fmt.Errorf("%w: %v is migrated", errBadState, f)
		}
		m.state = Premigrated
		return nil
	})
}

// Punch converts a premigrated file to a migrated stub, freeing its
// disk blocks while keeping the inode, size, and xattrs visible.
func (fs *FS) Punch(p string) error {
	b := fs.Bill(1)
	return b.punch(ref{path: p})
}

// PunchID is Punch of the file with ID id.
func (fs *FS) PunchID(id vfs.FileID) error {
	b := fs.Bill(1)
	return b.punch(ref{id: id, byID: true})
}

func (b *Batch) punch(f ref) error {
	return b.transition(f, func(m *fileMeta, size int64) error {
		if m.state != Premigrated {
			return fmt.Errorf("%w: punch requires premigrated, %v is %v", errBadState, f, m.state)
		}
		b.fs.poolOf(m).used -= size
		m.state = Migrated
		return nil
	})
}

// Restore lands recalled data back into the file, making it resident
// (or premigrated, if keepBackendCopy is true — a recall leaves the
// tape copy valid).
func (fs *FS) Restore(p string, keepBackendCopy bool) error {
	b := fs.Bill(1)
	return b.restore(ref{path: p}, keepBackendCopy)
}

// RestoreID is FS.Restore of the file with ID id, on a pre-paid batch.
func (b *Batch) RestoreID(id vfs.FileID, keepBackendCopy bool) error {
	return b.restore(ref{id: id, byID: true}, keepBackendCopy)
}

func (b *Batch) restore(f ref, keepBackendCopy bool) error {
	return b.transition(f, func(m *fileMeta, size int64) error {
		if m.state != Migrated {
			return fmt.Errorf("%w: restore requires migrated, %v is %v", errBadState, f, m.state)
		}
		pl := b.fs.poolOf(m)
		if size > pl.free() {
			return fmt.Errorf("%w: pool %s recall of %d bytes", errNoSpace, pl.Spec.Name, size)
		}
		pl.used += size
		if keepBackendCopy {
			m.state = Premigrated
		} else {
			m.state = Resident
		}
		return nil
	})
}

// transition spends one operation applying fn to the residency record
// of the regular file f.
func (b *Batch) transition(f ref, fn func(m *fileMeta, size int64) error) error {
	fs := b.spend()
	id, typ, size, err := fs.lookup(f)
	if err != nil {
		return err
	}
	if typ == vfs.TypeDir {
		return fmt.Errorf("%w: %v", vfs.ErrIsDir, f)
	}
	m := fs.metaOf(id)
	if m == nil {
		return fmt.Errorf("pfs: no pool metadata for %v", f)
	}
	return fn(m, size)
}

// Lookup resolves p to its file ID and residency state. It is free (a
// dcache hit): the caller keeps the ID for the ID forms.
func (fs *FS) Lookup(p string) (vfs.FileID, MigState, error) {
	return fs.state(ref{path: p})
}

// StateID reports the residency state of the file with ID id (free).
func (fs *FS) StateID(id vfs.FileID) (MigState, error) {
	_, st, err := fs.state(ref{id: id, byID: true})
	return st, err
}

func (fs *FS) state(f ref) (vfs.FileID, MigState, error) {
	id, _, _, err := fs.lookup(f)
	if err != nil {
		return 0, 0, err
	}
	if m := fs.metaOf(id); m != nil {
		return id, m.state, nil
	}
	return id, Resident, nil
}

// Scan runs a full-filesystem inode scan, invoking fn for every inode,
// and charges the calibrated scan cost (NumInodes x ScanPerInode /
// ScanParallel) in batches so concurrent actors interleave. This is the
// GPFS policy-engine primitive underlying ILM list and migration
// policies.
func (fs *FS) Scan(fn func(Info) error) error {
	const batch = 10000
	per := fs.cfg.ScanPerInode / time.Duration(fs.cfg.ScanParallel)
	count := 0
	err := fs.ns.Walk("/", func(vi vfs.Info) error {
		count++
		if count%batch == 0 {
			fs.clock.Sleep(time.Duration(batch) * per)
		}
		return fn(fs.decorate(vi))
	})
	if rem := count % batch; rem > 0 {
		fs.clock.Sleep(time.Duration(rem) * per)
	}
	return err
}
