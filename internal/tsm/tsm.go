// Package tsm simulates the COTS backup/archive product of the paper
// (IBM Tivoli Storage Manager 5.5): a single metadata server in front
// of a tape library, with LAN-free storage agents that stream data from
// client machines straight to tape over the SAN while metadata
// transactions serialize through the server.
//
// The properties the paper depends on are reproduced:
//
//   - LAN-free movers on different machines write/read different tapes
//     independently, which is what makes the archive parallel (Fig. 6).
//   - Without LAN-free every byte flows through the server's network
//     link, which becomes the bottleneck (§4.2.2).
//   - The object database is unindexed by path/volume: QueryByPath
//     charges a full scan, the pain that motivates the MySQL shadow
//     database (§4.2.5) implemented in package metadb.
//   - Each file stored is one tape transaction, so small files collapse
//     drive throughput (§6.1) unless the caller aggregates.
//   - Co-location groups steer a group's files onto the same volumes.
package tsm

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/tape"
	"repro/internal/telemetry"
)

// Errors returned by the server.
var (
	ErrNoSuchObject = errors.New("tsm: no such object")
	errTooLarge     = errors.New("tsm: object exceeds volume capacity")
	// errNoDrives means every drive in the library has failed: no data
	// operation can proceed until a drive is repaired.
	errNoDrives = errors.New("tsm: no operational tape drives")
)

// ClassMigrate is the class of HSM-migrated data, the only one: every
// object is HSM-migrated data; no caller stores a backup class.
const ClassMigrate = 0

// Object is one entry in the server's database.
type Object struct {
	ID      uint64
	Path    string // client namespace path
	FileID  uint64 // client filesystem file ID
	Bytes   int64
	Volume  string // cartridge label
	Seq     int    // tape sequence number
	Group   string // co-location group
	Stored  time.Duration
	Deleted bool // logically deleted; space awaits reclamation
	// Sum is the content digest the client recorded at store time (0 =
	// none). It is the catalog's ground truth: recalls and scrub passes
	// compare what tape delivers against it.
	Sum uint64
}

// Config tunes the server.
type Config struct {
	LANFree         bool
	ServerRate      float64       // server NIC bytes/s (all data when !LANFree; metadata otherwise)
	TxnCost         time.Duration // per metadata transaction at the server
	TxnParallel     int           // concurrent transactions the server sustains
	DBScanPerObject time.Duration // unindexed query cost per database row
	// Retry is the bounded exponential-backoff policy for transient data
	// path errors (drive I/O faults, a drive dying mid-session). The zero
	// value means faults.DefaultBackoff.
	Retry faults.Backoff
}

// DefaultConfig returns the deployment used in the paper: LAN-free over
// a 10GigE server link.
func DefaultConfig() Config {
	return Config{
		LANFree:         true,
		ServerRate:      1.18e9, // one 10GigE, usable
		TxnCost:         2 * time.Millisecond,
		TxnParallel:     8,
		DBScanPerObject: 2 * time.Microsecond,
		Retry:           faults.DefaultBackoff(),
	}
}

// Server is the TSM instance: one per archive (the paper's §6.4 single
// point of failure).
type Server struct {
	clock *simtime.Clock
	cfg   Config
	lib   *tape.Library
	comp  string // fault component: faults.TSMComponent(lib.Site())

	db         objTable
	order      []uint64 // committed object IDs in commit order
	nextID     uint64
	txnRes     *simtime.Resource
	drvPool    *simtime.Resource
	netLink    *fabric.Link
	coloc      map[string]string // group -> current volume label
	mounting   map[string]bool   // volume labels with a mount in flight
	reclaiming map[string]bool   // volumes being reclaimed: never a write target
	quarantine map[string]bool   // volumes with detected corruption: never a write target
	copyPool   map[string]bool   // copy-storage-pool volumes: never a primary write target
	copyOrder  []string          // copy-pool labels in insertion order
	copies     map[uint64]copyLoc
	replicas   map[replicaKey]*Replica // cross-site duplicates held here
	onChange   []func(Object)          // notified after each committed store, move and delete
	lastDrive  map[string]*tape.Drive
	down       bool // server outage: transactions block until repair
	sch        *sched.Scheduler
	defense    *faults.Defense // shared retry budgets + breakers (inert unless enabled)

	tel               *telemetry.Registry
	ctrTxn            *telemetry.Counter
	ctrStores         *telemetry.Counter
	ctrRecalls        *telemetry.Counter
	ctrDeletes        *telemetry.Counter
	ctrRetries        *telemetry.Counter
	ctrPathQueries    *telemetry.Counter
	ctrBytesStored    *telemetry.Counter
	ctrBytesRead      *telemetry.Counter
	ctrDetected       *telemetry.Counter
	ctrRepaired       *telemetry.Counter
	ctrUnrepair       *telemetry.Counter
	ctrStoreTaints    *telemetry.Counter
	ctrReplicas       *telemetry.Counter
	ctrReplicaBytes   *telemetry.Counter
	ctrReplicaRecalls *telemetry.Counter
	gDown             *telemetry.Gauge
}

// NewServer creates a server managing lib, named for the library's
// site: fault component tsm:<site> behind <site>-tsm-server-nic.
func NewServer(clock *simtime.Clock, cfg Config, lib *tape.Library) *Server {
	if cfg.TxnParallel <= 0 {
		cfg.TxnParallel = 1
	}
	if cfg.Retry == (faults.Backoff{}) {
		cfg.Retry = faults.DefaultBackoff()
	}
	host := "tsm-server"
	if lib.Site() != "" {
		host = lib.Site() + "-" + host
	}
	s := &Server{
		clock:      clock,
		cfg:        cfg,
		lib:        lib,
		comp:       faults.TSMComponent(lib.Site()),
		txnRes:     simtime.NewResource(clock, cfg.TxnParallel),
		drvPool:    simtime.NewResource(clock, len(lib.Drives())),
		netLink:    fabric.Of(clock).AddLink(host+"-nic", cfg.ServerRate, fabric.Clients, host),
		coloc:      make(map[string]string),
		mounting:   make(map[string]bool),
		reclaiming: make(map[string]bool),
		quarantine: make(map[string]bool),
		copyPool:   make(map[string]bool),
		copies:     make(map[uint64]copyLoc),
		replicas:   make(map[replicaKey]*Replica),
		lastDrive:  make(map[string]*tape.Drive),
	}
	s.tel = lib.Telemetry()
	s.sch = sched.Of(clock)
	s.defense = faults.DefenseOf(clock)
	s.ctrTxn = s.tel.Counter("tsm_transactions_total")
	s.ctrStores = s.tel.Counter("tsm_stores_total")
	s.ctrRecalls = s.tel.Counter("tsm_recalls_total")
	s.ctrDeletes = s.tel.Counter("tsm_deletes_total")
	s.ctrRetries = s.tel.Counter("tsm_retries_total")
	s.ctrPathQueries = s.tel.Counter("tsm_path_queries_total")
	s.ctrBytesStored = s.tel.Counter("tsm_bytes_stored_total")
	s.ctrBytesRead = s.tel.Counter("tsm_bytes_read_total")
	s.ctrDetected = s.tel.Counter("tsm_integrity_detected_total")
	s.ctrRepaired = s.tel.Counter("tsm_integrity_repaired_total")
	s.ctrUnrepair = s.tel.Counter("tsm_integrity_unrepairable_total")
	s.ctrStoreTaints = s.tel.Counter("tsm_stores_corrupted_total")
	s.ctrReplicas = s.tel.Counter("tsm_replicas_stored_total")
	s.ctrReplicaBytes = s.tel.Counter("tsm_replica_bytes_total")
	s.ctrReplicaRecalls = s.tel.Counter("tsm_replica_recalls_total")
	s.gDown = s.tel.Gauge("tsm_down")
	s.tel.GaugeFunc("tsm_objects_live", func() float64 { return float64(s.NumObjects()) })
	return s
}

// Telemetry returns the registry view the server's series register on:
// its library's.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Component names the server in the fault registry; a span an outage
// aborts cites the component's last event.
func (s *Server) Component() string { return s.comp }

// NewStream opens a persistent fabric stream along the store route p,
// with the server link spliced in when the deployment is not LAN-free —
// for callers that store many objects over one path (an HSM migration
// mover working through its share). Pass the flow via
// StoreRequest.Stream and Close it when the pass ends. Returns nil for
// an empty path, which callers may pass straight through (Store then
// falls back to its routeless accounting).
func (s *Server) NewStream(p fabric.Path) *fabric.Flow {
	if p.Empty() {
		return nil
	}
	if !s.cfg.LANFree {
		p = p.With(s.netLink)
	}
	return p.Fabric().Stream(p)
}

// NumObjects reports live (non-deleted) objects.
func (s *Server) NumObjects() int {
	n := 0
	for _, id := range s.order {
		if !s.db.get(id).Deleted {
			n++
		}
	}
	return n
}

// SetDown starts (or ends) a server outage — the paper's §6.4 single
// point of failure. While down, every transaction blocks; clients poll
// until the server returns, then proceed where they left off. Data
// already on tape is unaffected.
func (s *Server) SetDown(down bool) {
	s.down = down
	if down {
		s.gDown.Set(1)
	} else {
		s.gDown.Set(0)
	}
}

// txn charges one metadata transaction through the server.
func (s *Server) txn() {
	for s.down {
		s.clock.Sleep(5 * time.Second) // outage: block and re-poll
	}
	s.ctrTxn.Inc()
	if s.cfg.TxnCost <= 0 {
		return
	}
	s.txnRes.Acquire(1)
	s.clock.Sleep(s.cfg.TxnCost)
	s.txnRes.Release(1)
}

// txnDeadline is txn with a virtual-time budget: a caller that carries
// a deadline gives up when it passes during an outage, instead of
// polling the down server until repair — a doomed request blocking for
// minutes is exactly the queue the retry storm feeds on. deadline = 0
// blocks like txn.
func (s *Server) txnDeadline(deadline simtime.Duration) error {
	if deadline > 0 {
		for s.down {
			now := s.clock.Now()
			if now >= deadline {
				return fmt.Errorf("tsm: server down: %w", sched.ErrDeadlineExceeded)
			}
			d := simtime.Duration(5 * time.Second)
			if rem := deadline - now; rem < d {
				d = rem
			}
			s.clock.Sleep(d)
		}
	}
	s.txn()
	return nil
}

// OnChange registers a hook fired (in registration order) after every
// committed catalog change — a store, a move to a fresh primary
// (repair, reclamation), a delete (Deleted set): the one feed every
// mirror of the catalog follows. Hooks run in the committing actor, so
// they must only record or enqueue, never block.
func (s *Server) OnChange(fn func(Object)) {
	s.onChange = append(s.onChange, fn)
}

// changed hands obj's committed state to the OnChange hooks.
func (s *Server) changed(obj *Object) {
	for _, fn := range s.onChange {
		fn(*obj)
	}
}

// DownCause is the fault event that took the server down while the
// outage lasts, else 0: the cause a refused span cites.
func (s *Server) DownCause() uint64 {
	if !s.down {
		return 0
	}
	id, _ := s.tel.LastEventFor(s.comp)
	return id
}

// abortAdmit records a span for a session the scheduler refused
// (deadline passed or brownout shed), citing the outage's fault event
// while the server is down.
func (s *Server) abortAdmit(kind, client, what string, err error) {
	sp := s.tel.StartSpan(kind, "client", client, "what", what)
	sp.Abort(err.Error(), s.DownCause())
}

// reapDownDrives resizes the drive pool to the operational drive count
// and drops client affinities to dead drives. It runs lazily at the top
// of every data operation — the way a real server notices a drive fault
// on its next I/O, not instantaneously — so repairs are picked up the
// same way. With every drive dead the pool keeps capacity 1 and
// acquisition paths fail with ErrNoDrives instead.
func (s *Server) reapDownDrives() {
	up := 0
	for _, d := range s.lib.Drives() {
		if !d.Down() {
			up++
			continue
		}
		for client, ld := range s.lastDrive {
			if ld == d {
				delete(s.lastDrive, client)
			}
		}
	}
	if up == 0 {
		up = 1
	}
	if s.drvPool.Cap() != up {
		s.drvPool.SetCap(up)
	}
}

// failover prepares retry attempt number attempt: every attempt after
// the first reaps down drives (the failover must see the shrunken pool)
// and counts as a retry.
func (s *Server) failover(attempt int) {
	if attempt > 1 {
		s.reapDownDrives()
		s.ctrRetries.Inc()
	}
}

// retryable classifies data-path errors worth re-driving on another
// drive: transient I/O faults, a drive dying mid-session, and media
// frozen read-only under the write (the retry picks a new volume).
func retryable(err error) bool {
	return errors.Is(err, tape.ErrIO) ||
		errors.Is(err, tape.ErrDriveDown) ||
		errors.Is(err, tape.ErrMediaReadOnly)
}

// StoreRequest describes one object to write to tape.
type StoreRequest struct {
	Client string // machine running the storage agent
	// Class is ignored: every object is ClassMigrate. bench/probes.go
	// still sets it.
	Class  int
	Path   string
	FileID uint64
	Bytes  int64
	Group  string // co-location group ("" = none)
	// Sum is the client-computed content digest recorded in the catalog
	// (0 = untracked); recalls and scrub passes verify against it.
	Sum uint64
	// Route is the fabric path the data crosses between the client's
	// disk and its HBA (source pool ... SAN), from fabric.Route. The
	// tape drive itself and, when not LAN-free, the server link, are
	// added by the server.
	Route fabric.Path
	// Stream, when non-nil, carries the data as one segment of a
	// persistent fabric stream (from Server.NewStream) instead of a
	// fresh one-shot flow: a migration pass storing thousands of files
	// through the same mover pays O(1) scheduler work per store. The
	// stream must already include the server link when the deployment
	// is not LAN-free — NewStream handles that — and Route is ignored
	// for data movement when Stream is set.
	Stream *fabric.Flow
	// Parent, when set, is the telemetry span (e.g. the HSM store phase)
	// the session's span nests under.
	Parent *telemetry.Span
}

// Store writes one object to tape and records it, returning the
// database entry. The caller observes tape mount/seek/stream time plus
// the shared-path transfer time, whichever is slower. Transient drive
// errors fail over to a freshly acquired drive under the configured
// bounded exponential backoff (the storage agent's standard recovery);
// persistent faults surface to the caller after the attempt budget.
func (s *Server) Store(req StoreRequest) (Object, error) {
	if req.Bytes < 0 {
		return Object{}, fmt.Errorf("tsm: negative size")
	}
	grant := s.sch.Station(sched.StationSession).Admit(sched.Item{
		QoS: sched.QoS{}.Or(sched.Batch), Units: req.Bytes,
	})
	if gerr := grant.Err(); gerr != nil {
		s.abortAdmit("tsm.store", req.Client, req.Path, gerr)
		return Object{}, fmt.Errorf("tsm: store %s: %w", req.Path, gerr)
	}
	defer grant.Done()
	s.reapDownDrives()
	s.txn()
	sp := telemetry.ChildOf(s.tel, req.Parent, "tsm.store", "client", req.Client, "path", req.Path)
	s.nextID++ // allocate the object ID up front: concurrent stores must not collide
	id := s.nextID
	var wr tapeIO
	var vol *tape.Cartridge
	var taintCause uint64
	var tainted bool
	attempts := 0
	storeErr := s.defense.Do("tsm.session", s.cfg.Retry, func(attempt int) error {
		attempts = attempt
		s.failover(attempt)
		drive, v, err := s.acquireDriveForWrite(req.Client, req.Group, req.Bytes)
		if err != nil {
			return err
		}
		if err := s.beginSession(drive, req.Client, sp); err != nil {
			s.dropAffinity(req.Client, drive)
			return err
		}
		wr, taintCause, tainted, err = s.moveData(req.Route, req.Stream,
			tapeIO{drive: drive, write: true, id: id, bytes: req.Bytes, sum: req.Sum})
		s.releaseDrive(drive)
		if err != nil {
			// Drop the client's affinity to the faulting drive so the
			// retry lands elsewhere.
			s.dropAffinity(req.Client, drive)
			return err
		}
		vol = v
		return nil
	}, retryable)
	if storeErr != nil {
		sp.Abort(storeErr.Error(), 0)
		return Object{}, storeErr
	}
	if tainted && req.Sum != 0 {
		// The stream was silently flipped in flight: what landed on tape
		// is not what the client sent. Nothing notices today — the store
		// "succeeds" — but the on-media digest is mangled and the damage
		// site tagged with its cause, so a verifying reader or the
		// scrubber catches it later. This is the silent half of the
		// threat model; no error, no span abort.
		vol.CorruptFile(wr.seq, taintCause)
		s.ctrStoreTaints.Inc()
	}
	sp.SetAttr("volume", vol.Label)
	if attempts > 1 {
		sp.SetAttr("attempts", strconv.Itoa(attempts))
	}
	sp.End()
	s.txn() // commit
	obj := s.db.put(Object{
		ID:     id,
		Path:   req.Path,
		FileID: req.FileID,
		Bytes:  req.Bytes,
		Volume: vol.Label,
		Seq:    wr.seq,
		Group:  req.Group,
		Stored: s.clock.Now(),
		Sum:    req.Sum,
	})
	s.order = append(s.order, id)
	if req.Group != "" {
		s.coloc[req.Group] = vol.Label
	}
	s.ctrStores.Inc()
	s.ctrBytesStored.Add(float64(req.Bytes))
	s.changed(obj)
	return *obj, nil
}

// tapeIO is the drive side of one moveData, handed over by value: an
// append of object id carrying digest sum when write, else a read of
// seq. moveData returns it with the outcome filled in: the appended
// file's seq, or the digest a read delivered in sum.
type tapeIO struct {
	drive *tape.Drive
	write bool
	id    uint64
	bytes int64
	seq   int
	sum   uint64
}

// run performs the drive operation.
func (t *tapeIO) run() error {
	if t.write {
		f, err := t.drive.AppendSum(t.id, t.bytes, t.sum)
		t.seq = f.Seq
		return err
	}
	_, sum, err := t.drive.ReadSeqSum(t.seq)
	t.sum = sum
	return err
}

// moveData moves t.bytes over the shared path while the drive performs
// t, both from the same instant; the slower of the two gates completion
// (store-and-forward free, cut-through streaming). It starts the
// transfer without blocking — a segment of the persistent stream
// (Server.NewStream) when one is given, else one coupled flow over the
// fabric route p with the server link spliced in when not LAN-free —
// then runs the drive operation on the calling actor and waits for the
// transfer to drain, so a drive fault surfaces only once the bytes in
// flight have landed. It reports whether a crossed link silently
// corrupted the stream in flight, and which fault event armed the
// taint.
func (s *Server) moveData(p fabric.Path, stream *fabric.Flow, t tapeIO) (done tapeIO, taintCause uint64, tainted bool, err error) {
	fl := stream
	if fl != nil {
		fl.Push(t.bytes)
	} else {
		if !s.cfg.LANFree {
			p = p.With(s.netLink)
		}
		if !p.Empty() {
			fl = p.Fabric().Start(p, t.bytes)
		}
	}
	err = t.run()
	if fl != nil {
		fl.Wait()
		taintCause, tainted = fl.Tainted()
	}
	return t, taintCause, tainted, err
}

// acquireDriveForWrite admits the caller to the drive pool and returns
// a held drive with a volume mounted that fits the object, honoring
// co-location and the storage agent's drive affinity (a LAN-free agent
// keeps writing through its own mount point, so same-client sessions
// avoid the hand-off penalty). Release with ReleaseDrive.
func (s *Server) acquireDriveForWrite(client, group string, bytes int64) (*tape.Drive, *tape.Cartridge, error) {
	s.drvPool.Acquire(1)
	// 1. Co-location: the group's current volume, wherever it is.
	if group != "" {
		if label, ok := s.coloc[group]; ok && s.writeOK(label) {
			if c, err := s.lib.Cartridge(label); err == nil && !c.ReadOnly() && c.Remaining() >= bytes {
				d, err := s.acquireVolumeDrive(c)
				if err != nil {
					s.drvPool.Release(1)
					return nil, nil, err
				}
				// Capacity may have been consumed while we waited.
				if d.Mounted() == c && !c.ReadOnly() && c.Remaining() >= bytes {
					s.lastDrive[client] = d
					return d, c, nil
				}
				d.Release()
			}
		}
	}
	// 2. Client affinity: the agent's own mount point.
	if d := s.lastDrive[client]; d != nil && !d.Down() && d.TryAcquire() {
		if m := d.Mounted(); m != nil && !m.ReadOnly() && m.Remaining() >= bytes && s.writeOK(m.Label) {
			return d, m, nil
		}
		d.Release()
	}
	// 3. A fresh scratch volume on an idle drive.
	d, err := s.idleDrive()
	if err != nil {
		s.drvPool.Release(1)
		return nil, nil, err
	}
	vol := s.scratchVolume(bytes)
	if vol == nil {
		// 4. Last resort: reuse whatever volume the drive holds.
		if m := d.Mounted(); m != nil && !m.ReadOnly() && m.Remaining() >= bytes && s.writeOK(m.Label) {
			s.lastDrive[client] = d
			return d, m, nil
		}
		s.releaseDrive(d)
		if bytes > s.lib.Drives()[0].Spec().Capacity {
			return nil, nil, fmt.Errorf("%w: %d bytes", errTooLarge, bytes)
		}
		return nil, nil, tape.ErrNoScratch
	}
	s.mounting[vol.Label] = true
	err = s.lib.Mount(d, vol)
	delete(s.mounting, vol.Label)
	if err != nil {
		s.releaseDrive(d)
		return nil, nil, err
	}
	s.lastDrive[client] = d
	return d, vol, nil
}

// dropAffinity forgets client's drive affinity if it points at d.
func (s *Server) dropAffinity(client string, d *tape.Drive) {
	if s.lastDrive[client] == d {
		delete(s.lastDrive, client)
	}
}

// releaseDrive returns a drive obtained from an acquire helper along
// with its pool slot, detaching any trace parent the session set.
func (s *Server) releaseDrive(d *tape.Drive) {
	d.SetTraceParent(nil)
	d.Release()
	s.drvPool.Release(1)
}

// volumeDrive takes a drive-pool slot and returns a held drive with vol
// mounted (see acquireVolumeDrive). Release with ReleaseDrive.
func (s *Server) volumeDrive(vol *tape.Cartridge) (*tape.Drive, error) {
	s.drvPool.Acquire(1)
	d, err := s.acquireVolumeDrive(vol)
	if err != nil {
		s.drvPool.Release(1)
		return nil, err
	}
	return d, nil
}

// beginSession opens client's session on a held drive, nesting the
// drive's phase spans under sp. On failure the drive is released.
func (s *Server) beginSession(d *tape.Drive, client string, sp *telemetry.Span) error {
	d.SetTraceParent(sp)
	if err := d.BeginSession(client); err != nil {
		s.releaseDrive(d)
		return err
	}
	return nil
}

// volumeSession is volumeDrive followed by beginSession.
func (s *Server) volumeSession(vol *tape.Cartridge, client string, sp *telemetry.Span) (*tape.Drive, error) {
	d, err := s.volumeDrive(vol)
	if err != nil {
		return nil, err
	}
	if err := s.beginSession(d, client, sp); err != nil {
		return nil, err
	}
	return d, nil
}

// acquireVolumeDrive returns a held drive with vol mounted, mounting it
// if necessary. A cartridge can only ever be in one drive: callers that
// need a volume someone else is using queue FIFO on that drive — the
// physical reality behind §6.2's hand-off penalties. A volume stuck in
// a dead drive is force-ejected by the robot and remounted on a
// survivor. The caller must already hold a drive-pool slot. Fails with
// errNoDrives when no operational drive remains.
func (s *Server) acquireVolumeDrive(vol *tape.Cartridge) (*tape.Drive, error) {
	for {
		if holder := s.lib.MountedIn(vol); holder != nil {
			holder.Acquire()
			if holder.Mounted() == vol {
				if !holder.Down() {
					return holder, nil
				}
				// Stuck in a dead drive: pull it with the robot and
				// rescan — the next pass mounts it on a survivor.
				s.lib.ForceEject(holder)
			}
			// The volume moved (or was freed) while we queued; rescan.
			holder.Release()
			continue
		}
		if s.mounting[vol.Label] {
			// Another actor is mounting it right now.
			s.clock.Sleep(time.Second)
			continue
		}
		s.mounting[vol.Label] = true
		d, idleErr := s.idleDrive()
		if idleErr != nil {
			delete(s.mounting, vol.Label)
			return nil, idleErr
		}
		err := s.lib.Mount(d, vol)
		delete(s.mounting, vol.Label)
		if err != nil {
			// Lost a race (or the drive died under us); put the drive
			// back and retry.
			d.Release()
			s.clock.Sleep(time.Second)
			continue
		}
		return d, nil
	}
}

// idleDrive picks and acquires an operational drive for a fresh mount:
// an empty idle drive if one exists, else any idle drive (its volume
// gets swapped out). Pool admission guarantees at least one idle drive
// among the survivors; ErrNoDrives if every drive is down.
func (s *Server) idleDrive() (*tape.Drive, error) {
	drives := s.lib.UpDrives()
	if len(drives) == 0 {
		return nil, errNoDrives
	}
	for _, d := range drives {
		if d.Mounted() == nil && d.TryAcquire() {
			return d, nil
		}
	}
	for _, d := range drives {
		if d.TryAcquire() {
			return d, nil
		}
	}
	// Unreachable under pool admission; block defensively.
	drives[0].Acquire()
	return drives[0], nil
}

// scratchVolume picks an unmounted, not-being-mounted, writable
// cartridge with room for the object (nil if none).
func (s *Server) scratchVolume(bytes int64) *tape.Cartridge {
	for _, c := range s.lib.Cartridges() {
		if c.ReadOnly() || c.Remaining() < bytes || s.mounting[c.Label] || !s.writeOK(c.Label) {
			continue
		}
		if s.lib.MountedIn(c) == nil {
			return c
		}
	}
	return nil
}

// RecallRequest describes reading one object back.
type RecallRequest struct {
	Client   string
	ObjectID uint64
	// Route is the fabric path from the SAN back to the client's disk
	// (see StoreRequest.Route).
	Route fabric.Path
	// Parent, when set, is the telemetry span the session nests under.
	Parent *telemetry.Span
	// QoS tags the scheduler admission (unset class = Interactive;
	// recalls are expedited — someone is waiting on the bytes).
	QoS sched.QoS
}

// Recall reads an object from tape back to the client. Transient drive
// errors are re-driven under the configured bounded backoff, like
// Store. The delivered digest is checked against the catalog before
// the recall is allowed to succeed: a mismatch walks the detect ->
// re-read -> copy-pool-repair ladder, and an object with no surviving
// good copy fails with a typed *IntegrityError rather than silently
// delivering wrong bytes. Objects stored without a digest are exempt.
func (s *Server) Recall(req RecallRequest) (Object, error) {
	s.reapDownDrives()
	if err := s.txnDeadline(req.QoS.Deadline); err != nil {
		s.abortAdmit("tsm.recall", req.Client, strconv.FormatUint(req.ObjectID, 10), err)
		return Object{}, err
	}
	obj := s.db.get(req.ObjectID)
	if obj == nil || obj.Deleted {
		return Object{}, fmt.Errorf("%w: %d", ErrNoSuchObject, req.ObjectID)
	}
	grant := s.sch.Station(sched.StationSession).Admit(sched.Item{
		QoS:   req.QoS.Or(sched.Interactive),
		Units: obj.Bytes, Expedite: true,
	})
	if gerr := grant.Err(); gerr != nil {
		s.abortAdmit("tsm.recall", req.Client, strconv.FormatUint(req.ObjectID, 10), gerr)
		return Object{}, fmt.Errorf("tsm: recall %d: %w", req.ObjectID, gerr)
	}
	defer grant.Done()
	sp := telemetry.ChildOf(s.tel, req.Parent, "tsm.recall", "client", req.Client, "volume", obj.Volume)
	// Each pass re-resolves the volume: a repair moves the object to a
	// fresh primary location. Pass 2 after a clean repair (or a consumed
	// in-flight taint) normally verifies; maxPasses bounds pathological
	// schedules that corrupt every retransmission.
	const maxPasses = 4
	for pass := 1; ; pass++ {
		vol, err := s.lib.Cartridge(obj.Volume)
		if err != nil {
			sp.Abort(err.Error(), 0)
			return Object{}, err
		}
		var rd tapeIO
		var tCause, headCause uint64
		var tainted bool
		recallErr := s.defense.Do("tsm.session", s.cfg.Retry, func(attempt int) error {
			s.failover(attempt)
			d, err := s.volumeSession(vol, req.Client, sp)
			if err != nil {
				return err
			}
			var readErr error
			rd, tCause, tainted, readErr = s.moveData(req.Route, nil, tapeIO{drive: d, bytes: obj.Bytes, seq: obj.Seq})
			headCause = d.CorruptCause()
			s.releaseDrive(d)
			return readErr
		}, retryable)
		if recallErr != nil {
			sp.Abort(recallErr.Error(), 0)
			return Object{}, recallErr
		}
		delivered := rd.sum
		if tainted && delivered != 0 {
			delivered = synthetic.CorruptDigest(delivered)
		}
		retry, verr := s.verifyDelivered(req.Client, obj, vol, delivered,
			tCause, tainted, headCause, pass >= maxPasses, "recall")
		if verr != nil {
			var ie *integrityError
			errors.As(verr, &ie)
			sp.Abort(verr.Error(), ie.CauseEvent)
			return Object{}, verr
		}
		if !retry {
			break
		}
	}
	sp.End()
	s.ctrRecalls.Inc()
	s.ctrBytesRead.Add(float64(obj.Bytes))
	return *obj, nil
}

// RecallBatchRequest reads several objects from ONE volume in a single
// drive session.
type RecallBatchRequest struct {
	Client    string
	Volume    string
	ObjectIDs []uint64 // caller orders these (ascending Seq for streaming)
	// Route is the fabric path from the SAN back to the client's disk
	// (see StoreRequest.Route).
	Route fabric.Path
	// Parent, when set, is the telemetry span the session nests under.
	Parent *telemetry.Span
}

// RecallBatch restores a batch of same-volume objects in one session:
// the drive is held once for the whole stream, which is how a real
// restore session behaves and what makes tape-ordered recall pay off —
// per-object Recall calls release the drive between files and invite
// another stream to evict the mounted volume.
func (s *Server) RecallBatch(req RecallBatchRequest) ([]Object, error) {
	if len(req.ObjectIDs) == 0 {
		return nil, nil
	}
	s.reapDownDrives()
	s.txn()
	objs := make([]*Object, 0, len(req.ObjectIDs))
	for _, id := range req.ObjectIDs {
		obj := s.db.get(id)
		if obj == nil || obj.Deleted {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchObject, id)
		}
		if obj.Volume != req.Volume {
			return nil, fmt.Errorf("tsm: object %d is on %s, not %s", id, obj.Volume, req.Volume)
		}
		objs = append(objs, obj)
	}
	vol, err := s.lib.Cartridge(req.Volume)
	if err != nil {
		return nil, err
	}
	var batchBytes int64
	for _, obj := range objs {
		batchBytes += obj.Bytes
	}
	// The admission covers the drive session only: objects that fail
	// verification re-run through single-object Recall afterwards, each
	// under its own grant (never while this one is held — a limited
	// station must not wait on itself).
	grant := s.sch.Station(sched.StationSession).Admit(sched.Item{
		QoS:   sched.QoS{}.Or(sched.Interactive),
		Units: batchBytes, Expedite: true,
	})
	if gerr := grant.Err(); gerr != nil {
		s.abortAdmit("tsm.recall-batch", req.Client, req.Volume, gerr)
		return nil, fmt.Errorf("tsm: recall batch %s: %w", req.Volume, gerr)
	}
	sp := telemetry.ChildOf(s.tel, req.Parent, "tsm.recall-batch",
		"client", req.Client, "volume", req.Volume, "objects", strconv.Itoa(len(objs)))
	d, err := s.volumeSession(vol, req.Client, sp)
	if err != nil {
		grant.Done()
		sp.Abort(err.Error(), 0)
		return nil, err
	}
	out := make([]Object, 0, len(objs))
	// Objects whose delivered digest fails verification are NOT returned
	// from the stream; they re-run through the single-object recall
	// ladder (re-read/repair/typed error) once the session is released.
	var bad []uint64
	for _, obj := range objs {
		rd, tCause, tainted, readErr := s.moveData(req.Route, nil, tapeIO{drive: d, bytes: obj.Bytes, seq: obj.Seq})
		if readErr != nil {
			s.releaseDrive(d)
			grant.Done()
			sp.Abort(readErr.Error(), 0)
			return out, readErr
		}
		delivered := rd.sum
		if tainted && delivered != 0 {
			delivered = synthetic.CorruptDigest(delivered)
		}
		if obj.Sum != 0 && delivered != obj.Sum {
			s.noteDetection(obj, "recall-batch",
				s.corruptionCause(vol, obj.Seq, tCause, tainted, d.CorruptCause()))
			bad = append(bad, obj.ID)
			continue
		}
		s.ctrRecalls.Inc()
		s.ctrBytesRead.Add(float64(obj.Bytes))
		out = append(out, *obj)
	}
	s.releaseDrive(d)
	grant.Done()
	for _, id := range bad {
		o, err := s.Recall(RecallRequest{Client: req.Client, ObjectID: id,
			Route: req.Route, Parent: sp})
		if err != nil {
			sp.Abort(err.Error(), 0)
			return out, err
		}
		out = append(out, o)
	}
	sp.End()
	return out, nil
}

// Delete logically deletes an object (tape space is reclaimed only by
// volume reclamation, exactly as in the real product).
func (s *Server) Delete(objectID uint64) error {
	s.txn()
	obj := s.db.get(objectID)
	if obj == nil || obj.Deleted {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, objectID)
	}
	obj.Deleted = true
	s.ctrDeletes.Inc()
	s.changed(obj)
	return nil
}

// Get returns an object by ID (indexed: cheap).
func (s *Server) Get(objectID uint64) (Object, error) {
	obj := s.db.get(objectID)
	if obj == nil {
		return Object{}, fmt.Errorf("%w: %d", ErrNoSuchObject, objectID)
	}
	return *obj, nil
}

// QueryByPath finds the newest live object for a path. The database has
// no path index and cannot be given one (§4.2.5), so this charges a
// full scan — the operation whose cost justifies the shadow database.
func (s *Server) QueryByPath(path string) (Object, error) {
	s.txn()
	s.ctrPathQueries.Inc()
	if s.cfg.DBScanPerObject > 0 && len(s.order) > 0 {
		s.clock.Sleep(time.Duration(len(s.order)) * s.cfg.DBScanPerObject)
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		if o := s.db.get(s.order[i]); !o.Deleted && o.Path == path {
			return *o, nil
		}
	}
	return Object{}, fmt.Errorf("%w: path %s", ErrNoSuchObject, path)
}

// Export streams every live object (admin interface used to build the
// shadow database). The cost is one scan of the DB.
func (s *Server) Export() []Object {
	s.txn()
	if s.cfg.DBScanPerObject > 0 && len(s.order) > 0 {
		s.clock.Sleep(time.Duration(len(s.order)) * s.cfg.DBScanPerObject)
	}
	out := make([]Object, 0, len(s.order))
	for _, id := range s.order {
		if o := s.db.get(id); !o.Deleted {
			out = append(out, *o)
		}
	}
	return out
}

// LiveObjects returns live objects without charge (test/assert helper).
func (s *Server) LiveObjects() []Object {
	out := make([]Object, 0, len(s.order))
	for _, id := range s.order {
		if o := s.db.get(id); !o.Deleted {
			out = append(out, *o)
		}
	}
	return out
}
