// Package tape simulates a tape subsystem: cartridges with sequential
// file marks, drives with calibrated LTO-4 timing (mount, seek, rewind,
// label verification, streaming transfer with a per-transaction
// start/stop penalty), and a library whose robot arbitrates mounts.
//
// The timing model is the load-bearing part. Two behaviors from the
// paper fall straight out of it:
//
//   - §6.1 small-file migration: each file is one transaction, and the
//     ~1.9 s start/stop penalty drops an 8 MB-per-file stream from the
//     drive's rated ~100 MB/s to ~4 MB/s.
//   - §6.2 recall thrashing: when a mounted tape is handed between
//     LAN-free client machines the drive rewinds and re-verifies the
//     label, so recalls scattered across machines crawl even though the
//     tape never physically dismounts.
package tape

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

// corruptSum mangles an on-media or delivered digest the way silent
// corruption does, via the shared deterministic mangler.
func corruptSum(sum uint64) uint64 { return synthetic.CorruptDigest(sum) }

// Errors returned by drive operations.
var (
	errNotMounted  = errors.New("tape: no cartridge mounted")
	errFull        = errors.New("tape: cartridge full")
	errNoSuchFile  = errors.New("tape: no such tape file")
	ErrNoScratch   = errors.New("tape: no scratch cartridge available")
	errNoSuchLabel = errors.New("tape: no such cartridge")
	// ErrIO is a transient drive error (media or head fault). The
	// transaction fails after a partial charge; nothing is recorded on
	// the cartridge. Callers retry, typically on another drive.
	ErrIO = errors.New("tape: drive I/O error")
	// ErrDriveDown means the drive has failed hard (fault-injection):
	// every operation is refused immediately until repair. A mounted
	// cartridge stays stuck in the drive until the robot force-ejects it.
	ErrDriveDown = errors.New("tape: drive down")
	// ErrMediaReadOnly means the cartridge has gone bad and was frozen
	// read-only: existing files still recall, appends are refused.
	ErrMediaReadOnly = errors.New("tape: cartridge is read-only")
)

// Spec holds a drive/media timing model.
type Spec struct {
	StreamRate       float64       // bytes per second while streaming
	StartStopPenalty time.Duration // per write/read transaction
	MountTime        time.Duration // drive load + thread (after the robot exchange)
	UnloadTime       time.Duration
	RobotTime        time.Duration // robot arm slot<->drive exchange
	LabelVerifyTime  time.Duration // read label at BOT
	MinSeekTime      time.Duration // locate, adjacent block
	FullSeekTime     time.Duration // locate across the whole tape
	RewindTime       time.Duration // full rewind from EOT
	Capacity         int64         // native bytes per cartridge
}

// LTO4 returns the calibrated LTO-4 generation model used throughout
// the reproduction (rates per the paper; penalties fitted to its
// reported 8 MB -> 4 MB/s small-file behavior).
func LTO4() Spec {
	return Spec{
		StreamRate:       100e6, // the paper's "rated performance of LTO-4"
		StartStopPenalty: 1920 * time.Millisecond,
		MountTime:        45 * time.Second,
		UnloadTime:       30 * time.Second,
		RobotTime:        10 * time.Second,
		LabelVerifyTime:  15 * time.Second,
		MinSeekTime:      2 * time.Second,
		FullSeekTime:     90 * time.Second,
		RewindTime:       80 * time.Second,
		Capacity:         800e9, // LTO-4 native
	}
}

// File records one object written to a cartridge.
type File struct {
	Seq   int   // 1-based position on the tape
	Off   int64 // byte offset of the file's first block
	Bytes int64
	// Sum is the digest of the bytes actually on the medium (0 when the
	// writer recorded none). It normally equals the catalog's digest of
	// the object; silent corruption — a flaky head, a tainted flow, bit
	// rot at rest — makes the two diverge, which is exactly what a
	// verifying reader detects.
	Sum uint64
}

// Corruption records one silent-damage site on a cartridge: the byte
// offset hit and the fault event that caused it (0 if untagged).
type Corruption struct {
	Off   int64
	Cause uint64
}

// Cartridge is a sequential medium. Files append at end-of-data.
type Cartridge struct {
	Label    string
	cap      int64
	files    []File
	eod      int64
	readOnly bool
	corrupt  map[int]Corruption // seq -> damage record
}

// NewCartridge creates an empty cartridge.
func NewCartridge(label string, capacity int64) *Cartridge {
	return &Cartridge{Label: label, cap: capacity}
}

// Used reports bytes written.
func (c *Cartridge) Used() int64 { return c.eod }

// Remaining reports bytes of free capacity.
func (c *Cartridge) Remaining() int64 { return c.cap - c.eod }

// SetReadOnly freezes (or unfreezes) the cartridge: the gone-bad-media
// failure mode, where the library marks a suspect tape read-only so its
// contents stay recallable but no new data lands on it.
func (c *Cartridge) SetReadOnly(ro bool) { c.readOnly = ro }

// ReadOnly reports whether the cartridge is frozen read-only.
func (c *Cartridge) ReadOnly() bool { return c.readOnly }

// Erase wipes the cartridge back to scratch (used by reclamation after
// its live objects have been copied off). The cartridge must not be
// mounted.
func (c *Cartridge) Erase() {
	c.files = nil
	c.eod = 0
	c.corrupt = nil
}

// CorruptAtOffset models bit rot at rest: the tape file covering byte
// offset off has its on-media digest silently mangled and the damage
// site recorded. It reports the file hit; ok is false when the offset
// lands outside the written region (rot in unwritten tape is harmless).
func (c *Cartridge) CorruptAtOffset(off int64, cause uint64) (File, bool) {
	if off < 0 || off >= c.eod {
		return File{}, false
	}
	for i := range c.files {
		f := c.files[i]
		if off >= f.Off && off < f.Off+f.Bytes {
			c.files[i].Sum = corruptSum(f.Sum)
			c.markCorrupt(f.Seq, Corruption{Off: off, Cause: cause})
			return c.files[i], true
		}
	}
	return File{}, false
}

// CorruptFile mangles the on-media digest of the tape file at seq and
// records the damage: silent corruption discovered to have landed after
// the fact (e.g. a store whose stream was flipped in flight).
func (c *Cartridge) CorruptFile(seq int, cause uint64) {
	if seq < 1 || seq > len(c.files) {
		return
	}
	if c.files[seq-1].Sum != 0 {
		c.files[seq-1].Sum = corruptSum(c.files[seq-1].Sum)
	}
	c.markCorrupt(seq, Corruption{Off: c.files[seq-1].Off, Cause: cause})
}

func (c *Cartridge) markCorrupt(seq int, rec Corruption) {
	if c.corrupt == nil {
		c.corrupt = make(map[int]Corruption)
	}
	if _, dup := c.corrupt[seq]; !dup {
		c.corrupt[seq] = rec // first damage wins: that event broke the file
	}
}

// CorruptionFor returns the damage record of a tape file, if any.
func (c *Cartridge) CorruptionFor(seq int) (Corruption, bool) {
	rec, ok := c.corrupt[seq]
	return rec, ok
}

// CorruptCount reports how many tape files carry damage records.
func (c *Cartridge) CorruptCount() int { return len(c.corrupt) }

// fileBySeq looks up a tape file by its 1-based sequence number.
func (c *Cartridge) fileBySeq(seq int) (File, error) {
	if seq < 1 || seq > len(c.files) {
		return File{}, fmt.Errorf("%w: %s seq %d", errNoSuchFile, c.Label, seq)
	}
	return c.files[seq-1], nil
}

// Stats aggregates a drive's lifetime counters; experiments read them
// to quantify mounts, verifies and seek behaviour.
type Stats struct {
	Mounts        int
	Unmounts      int
	LabelVerifies int
	Seeks         int
	Rewinds       int
	FilesWritten  int
	FilesRead     int
	BytesWritten  int64
	BytesRead     int64
	BusyTime      time.Duration
	// TransferTime is the part of BusyTime spent in read/write
	// transactions (streaming plus start/stop penalties), excluding
	// mounts, seeks, rewinds, and label verifies. bytes/TransferTime is
	// the per-drive effective migration rate §6.1 talks about.
	TransferTime time.Duration
	// IOErrors counts injected transient transaction failures.
	IOErrors int
	// CorruptOps counts transactions the drive head silently corrupted
	// (fault-injection): the operation "succeeds" with mangled data.
	CorruptOps int
}

// Drive is one tape drive. All operations charge virtual time on the
// clock and require holding the drive (Acquire/Release): a drive serves
// one client at a time, FIFO.
type Drive struct {
	Name  string
	clock *simtime.Clock
	spec  Spec
	res   *simtime.Resource

	cart       *Cartridge
	pos        int64 // current head byte position
	lastClient string
	failOps    int     // pending injected transaction failures
	corruptOps int     // pending silently-corrupted transactions
	corruptCau uint64  // fault event behind the pending corruptions
	down       bool    // hard failure: every operation refused until repair
	slow       float64 // degrade factor in (0,1): streaming at a fraction of rated; 0 = healthy
	stats      Stats

	tel    *telemetry.Registry
	parent *telemetry.Span // current trace parent for phase spans
}

// newDrive creates an idle, empty drive whose series register on tel.
func newDrive(clock *simtime.Clock, tel *telemetry.Registry, name string, spec Spec) *Drive {
	d := &Drive{Name: name, clock: clock, spec: spec, res: simtime.NewResource(clock, 1), tel: tel}
	// The drive already keeps lifetime counters in Stats; mirror them
	// into the registry as snapshot-time collected series.
	for _, c := range []struct {
		name string
		fn   func() float64
	}{
		{"tape_drive_mounts_total", func() float64 { return float64(d.stats.Mounts) }},
		{"tape_drive_seeks_total", func() float64 { return float64(d.stats.Seeks) }},
		{"tape_drive_busy_seconds_total", func() float64 { return d.stats.BusyTime.Seconds() }},
		{"tape_drive_transfer_seconds_total", func() float64 { return d.stats.TransferTime.Seconds() }},
		{"tape_drive_bytes_written_total", func() float64 { return float64(d.stats.BytesWritten) }},
		{"tape_drive_bytes_read_total", func() float64 { return float64(d.stats.BytesRead) }},
		{"tape_drive_io_errors_total", func() float64 { return float64(d.stats.IOErrors) }},
		{"tape_drive_corrupt_ops_total", func() float64 { return float64(d.stats.CorruptOps) }},
	} {
		d.tel.CounterFunc(c.name, c.fn, "drive", name)
	}
	// Live health gauges for the operator plane: a scraper can spot a
	// failed or crawling drive (and judge its effective rate against
	// nominal) without any post-hoc report.
	d.tel.GaugeFunc("tape_drive_down", func() float64 {
		if d.down {
			return 1
		}
		return 0
	}, "drive", name)
	d.tel.GaugeFunc("tape_drive_degrade_factor", func() float64 { return d.degradeFactor() }, "drive", name)
	d.tel.GaugeFunc("tape_drive_nominal_bytes_per_second", func() float64 { return d.spec.StreamRate }, "drive", name)
	return d
}

// SetTraceParent sets the span under which the drive's phase spans
// (mount, seek, write, read) nest — typically the TSM session that
// holds the drive. A nil parent makes phase spans roots.
func (d *Drive) SetTraceParent(sp *telemetry.Span) { d.parent = sp }

// span opens one drive phase span under the current trace parent. The
// labels are gathered on the stack: a caller's variadic slice is full,
// so appending "drive" to it would allocate.
func (d *Drive) span(name string, kv ...string) *telemetry.Span {
	var buf [6]string
	return telemetry.ChildOf(d.tel, d.parent, name, append(append(buf[:0], kv...), "drive", d.Name)...)
}

// Acquire takes exclusive ownership of the drive (FIFO, blocking in
// virtual time).
func (d *Drive) Acquire() { d.res.Acquire(1) }

// TryAcquire takes the drive without blocking, reporting success.
func (d *Drive) TryAcquire() bool { return d.res.TryAcquire(1) }

// Release returns the drive.
func (d *Drive) Release() { d.res.Release(1) }

// Spec returns the drive's timing model.
func (d *Drive) Spec() Spec { return d.spec }

// FailNextOps injects n transient I/O failures: the next n read/write
// transactions on this drive return ErrIO (after a partial time charge
// — the drive ground on the fault before giving up). Failure-injection
// hook for reliability tests.
func (d *Drive) FailNextOps(n int) { d.failOps = n }

// CorruptNextOps arms n silently-corrupted transactions (a flaky head):
// the next n read/write transactions complete normally but mangle the
// data — a corrupted write lands a wrong on-media digest, a corrupted
// read delivers a wrong digest off intact media. The cause tags the
// damage with the provoking fault event for later span linkage.
func (d *Drive) CorruptNextOps(n int, cause uint64) {
	d.corruptOps = n
	d.corruptCau = cause
}

// injectedCorruption consumes one pending silent corruption. Unlike
// injectedFault it charges no extra time: the whole point is that the
// transaction looks perfectly healthy.
func (d *Drive) injectedCorruption() (uint64, bool) {
	if d.corruptOps <= 0 {
		return 0, false
	}
	d.corruptOps--
	d.stats.CorruptOps++
	return d.corruptCau, true
}

// CorruptCause reports the fault event behind the most recently armed
// head corruption (0 if none was ever armed) — the cause a verifying
// reader cites when a mismatch traces to the head rather than media.
func (d *Drive) CorruptCause() uint64 { return d.corruptCau }

// SetDown fails (or repairs) the drive hard. A down drive refuses every
// operation with ErrDriveDown; in-flight transactions are unaffected
// because failure takes effect at transaction boundaries (the actor
// holding the drive observes the failure on its next call). A mounted
// cartridge stays stuck until Library.ForceEject pulls it.
func (d *Drive) SetDown(down bool) { d.down = down }

// Down reports whether the drive has failed hard.
func (d *Drive) Down() bool { return d.down }

// SetDegraded throttles (or restores) the drive's streaming rate:
// transactions started while factor is in (0,1) stream at that
// fraction of the rated StreamRate — the "slow drive" failure mode
// where a dying head crawls instead of failing loudly. A factor of 1
// (or anything outside (0,1)) restores full speed. Like SetDown, the
// change takes effect at transaction boundaries; a transfer already
// under way keeps the rate it started with.
func (d *Drive) SetDegraded(factor float64) {
	if factor <= 0 || factor >= 1 {
		d.slow = 0
		return
	}
	d.slow = factor
}

// degradeFactor reports the streaming-rate fraction currently in
// effect (1 = healthy).
func (d *Drive) degradeFactor() float64 {
	if d.slow > 0 {
		return d.slow
	}
	return 1
}

// xferTime is the busy time of one read/write transaction: start/stop
// penalty plus streaming, stretched by any degrade factor.
func (d *Drive) xferTime(bytes int64) time.Duration {
	rate := d.spec.StreamRate
	if d.slow > 0 {
		rate *= d.slow
	}
	return d.spec.StartStopPenalty + time.Duration(float64(bytes)/rate*1e9)
}

// injectedFault consumes one pending failure, charging the fault time.
func (d *Drive) injectedFault() bool {
	if d.failOps <= 0 {
		return false
	}
	d.failOps--
	d.stats.IOErrors++
	d.busy(d.spec.StartStopPenalty * 3) // grind, retry internally, give up
	return true
}

// Mounted returns the mounted cartridge, or nil.
func (d *Drive) Mounted() *Cartridge { return d.cart }

func (d *Drive) busy(t time.Duration) {
	d.stats.BusyTime += t
	d.clock.Sleep(t)
}

// mount loads a cartridge (the library robot time is charged by the
// library). The head ends at beginning-of-tape with the label verified.
func (d *Drive) mount(c *Cartridge) {
	sp := d.span("tape.mount", "volume", c.Label)
	d.cart = c
	d.pos = 0
	d.lastClient = ""
	d.stats.Mounts++
	d.stats.LabelVerifies++
	d.setMountedInfo(c.Label, 1)
	d.busy(d.spec.MountTime + d.spec.LabelVerifyTime)
	sp.End()
}

// setMountedInfo maintains the tape_drive_mounted_info gauge — the
// Prometheus "info" idiom: one series per (drive, volume) pairing ever
// seen, value 1 while that volume sits in this drive. A live scraper
// joins it against per-drive rates to name the volume a sick drive is
// holding.
func (d *Drive) setMountedInfo(volume string, v float64) {
	d.tel.Gauge("tape_drive_mounted_info", "drive", d.Name, "volume", volume).Set(v)
}

// Unmount rewinds and ejects the mounted cartridge.
func (d *Drive) Unmount() error {
	if d.down {
		return fmt.Errorf("%w: %s", ErrDriveDown, d.Name)
	}
	if d.cart == nil {
		return errNotMounted
	}
	d.rewind()
	d.busy(d.spec.UnloadTime)
	d.setMountedInfo(d.cart.Label, 0)
	d.cart = nil
	d.lastClient = ""
	d.stats.Unmounts++
	return nil
}

func (d *Drive) rewind() {
	if d.pos == 0 {
		return
	}
	frac := float64(d.pos) / float64(d.cart.cap)
	d.stats.Rewinds++
	d.busy(time.Duration(frac * float64(d.spec.RewindTime)))
	d.pos = 0
}

// BeginSession declares which client machine is about to use the drive.
// In a LAN-free configuration a hand-off between machines forces a
// rewind and label re-verification even though the tape stays mounted —
// the §6.2 thrashing cost. Same-client sessions are free.
func (d *Drive) BeginSession(client string) error {
	if d.down {
		return fmt.Errorf("%w: %s", ErrDriveDown, d.Name)
	}
	if d.cart == nil {
		return errNotMounted
	}
	if d.lastClient != "" && d.lastClient != client {
		sp := d.span("tape.handoff", "from", d.lastClient, "to", client)
		d.rewind()
		d.stats.LabelVerifies++
		d.busy(d.spec.LabelVerifyTime)
		sp.End()
	}
	d.lastClient = client
	return nil
}

// seekTo positions the head at byte offset off.
func (d *Drive) seekTo(off int64) {
	if off == d.pos {
		return
	}
	dist := off - d.pos
	if dist < 0 {
		dist = -dist
	}
	frac := float64(dist) / float64(d.cart.cap)
	t := d.spec.MinSeekTime + time.Duration(frac*float64(d.spec.FullSeekTime-d.spec.MinSeekTime))
	sp := d.span("tape.seek")
	d.stats.Seeks++
	d.busy(t)
	d.pos = off
	sp.End()
}

// Append streams one object to the mounted cartridge at end-of-data and
// returns its tape file record. Each call is one transaction and pays
// the start/stop penalty. Callers that track checksums use AppendSum;
// Append records no digest.
func (d *Drive) Append(object uint64, bytes int64) (File, error) {
	return d.AppendSum(object, bytes, 0)
}

// AppendSum is Append recording the digest of the data being written.
// If the drive head is armed to corrupt (CorruptNextOps), the on-media
// digest is silently mangled and the damage recorded on the cartridge —
// the call still succeeds.
func (d *Drive) AppendSum(object uint64, bytes int64, sum uint64) (File, error) {
	if d.down {
		return File{}, fmt.Errorf("%w: %s", ErrDriveDown, d.Name)
	}
	if d.cart == nil {
		return File{}, errNotMounted
	}
	if d.cart.readOnly {
		return File{}, fmt.Errorf("%w: %s", ErrMediaReadOnly, d.cart.Label)
	}
	if bytes < 0 {
		return File{}, fmt.Errorf("tape: negative size %d", bytes)
	}
	if d.cart.eod+bytes > d.cart.cap {
		return File{}, fmt.Errorf("%w: %s needs %d, has %d", errFull, d.cart.Label, bytes, d.cart.Remaining())
	}
	sp := d.span("tape.write", "volume", d.cart.Label)
	if d.injectedFault() {
		err := fmt.Errorf("%w: %s writing object %d", ErrIO, d.Name, object)
		sp.Abort(err.Error(), 0)
		return File{}, err
	}
	// Nest the locate under the write span.
	outer := d.parent
	d.parent = sp
	d.seekTo(d.cart.eod)
	d.parent = outer
	xfer := d.xferTime(bytes)
	d.stats.TransferTime += xfer
	d.busy(xfer)
	f := File{Seq: len(d.cart.files) + 1, Off: d.cart.eod, Bytes: bytes, Sum: sum}
	if cause, bad := d.injectedCorruption(); bad && sum != 0 {
		f.Sum = corruptSum(sum)
		d.cart.files = append(d.cart.files, f)
		d.cart.markCorrupt(f.Seq, Corruption{Off: f.Off, Cause: cause})
	} else {
		d.cart.files = append(d.cart.files, f)
	}
	d.cart.eod += bytes
	d.pos = d.cart.eod
	d.stats.FilesWritten++
	d.stats.BytesWritten += bytes
	sp.End()
	return f, nil
}

// ReadSeq reads the tape file with the given sequence number, charging
// locate plus streaming time, and leaves the head at the file's end so
// that in-order recalls stream without re-seeking.
func (d *Drive) ReadSeq(seq int) (File, error) {
	f, _, err := d.ReadSeqSum(seq)
	return f, err
}

// ReadSeqSum is ReadSeq also reporting the digest of the bytes the
// drive delivered. The delivered digest is the on-media digest (which
// bit rot or a corrupted write may already have mangled) unless the
// head is armed to corrupt the read, in which case intact media is
// delivered wrong. A verifying reader compares it against the catalog.
func (d *Drive) ReadSeqSum(seq int) (File, uint64, error) {
	if d.down {
		return File{}, 0, fmt.Errorf("%w: %s", ErrDriveDown, d.Name)
	}
	if d.cart == nil {
		return File{}, 0, errNotMounted
	}
	f, err := d.cart.fileBySeq(seq)
	if err != nil {
		return File{}, 0, err
	}
	sp := d.span("tape.read", "volume", d.cart.Label)
	if d.injectedFault() {
		err := fmt.Errorf("%w: %s reading seq %d", ErrIO, d.Name, seq)
		sp.Abort(err.Error(), 0)
		return File{}, 0, err
	}
	outer := d.parent
	d.parent = sp
	d.seekTo(f.Off)
	d.parent = outer
	xfer := d.xferTime(f.Bytes)
	d.stats.TransferTime += xfer
	d.busy(xfer)
	d.pos = f.Off + f.Bytes
	d.stats.FilesRead++
	d.stats.BytesRead += f.Bytes
	delivered := f.Sum
	if _, bad := d.injectedCorruption(); bad && delivered != 0 {
		delivered = corruptSum(delivered)
	}
	sp.End()
	return f, delivered, nil
}

// Library is a collection of drives and cartridges with a robot that
// serializes mount/unmount exchanges.
type Library struct {
	clock  *simtime.Clock
	site   string
	drives []*Drive
	carts  map[string]*Cartridge
	order  []string // insertion order for deterministic scratch picks
	robot  *simtime.Resource

	tel          *telemetry.Registry
	ctrExchanges *telemetry.Counter
}

// NewLibrary creates a library with numDrives drives of the given spec
// and numCartridges scratch cartridges labelled VOL0001.., served by
// robots robot arms. Its drive and robot series carry the labels in
// scope ("key", "value", ...). A site-named plant passes "site", <name>:
// its series carry site=<name> and its drives and cartridges are named
// <name>-drive00.., <name>-VOL0001.., so several libraries share a clock.
func NewLibrary(clock *simtime.Clock, numDrives, numCartridges, robots int, spec Spec, scope ...string) *Library {
	if robots <= 0 {
		robots = 1
	}
	tel := telemetry.Of(clock).With(scope...)
	lib := &Library{
		clock:        clock,
		carts:        make(map[string]*Cartridge),
		robot:        simtime.NewResource(clock, robots),
		tel:          tel,
		ctrExchanges: tel.Counter("tape_robot_exchanges_total"),
	}
	prefix := ""
	for i := 0; i+1 < len(scope); i += 2 {
		if scope[i] == "site" {
			lib.site = scope[i+1]
			prefix = lib.site + "-"
		}
	}
	for i := 0; i < numDrives; i++ {
		lib.drives = append(lib.drives, newDrive(clock, tel, fmt.Sprintf("%sdrive%02d", prefix, i), spec))
	}
	for i := 0; i < numCartridges; i++ {
		label := fmt.Sprintf("%sVOL%04d", prefix, i+1)
		lib.carts[label] = NewCartridge(label, spec.Capacity)
		lib.order = append(lib.order, label)
	}
	return lib
}

// Telemetry returns the registry view the library's series register
// on; the servers and engines stacked on it register there too.
func (l *Library) Telemetry() *telemetry.Registry { return l.tel }

// Site names the library's site ("" for a plant alone on its clock).
func (l *Library) Site() string { return l.site }

// Drives returns the library's drives.
func (l *Library) Drives() []*Drive { return l.drives }

// Drive returns drive i.
func (l *Library) Drive(i int) *Drive { return l.drives[i] }

// Cartridge looks up a cartridge by label.
func (l *Library) Cartridge(label string) (*Cartridge, error) {
	c, ok := l.carts[label]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNoSuchLabel, label)
	}
	return c, nil
}

// Cartridges returns all cartridges in insertion order.
func (l *Library) Cartridges() []*Cartridge {
	out := make([]*Cartridge, 0, len(l.order))
	for _, label := range l.order {
		out = append(out, l.carts[label])
	}
	return out
}

// AddCartridge inserts a new cartridge into the library.
func (l *Library) AddCartridge(c *Cartridge) {
	l.carts[c.Label] = c
	l.order = append(l.order, c.Label)
}

// Scratch returns the first writable cartridge with at least need bytes
// free that is not currently mounted in any drive. Read-only (gone-bad)
// media are skipped: they recall but never receive new data.
func (l *Library) Scratch(need int64) (*Cartridge, error) {
	for _, label := range l.order {
		c := l.carts[label]
		if c.readOnly || c.Remaining() < need {
			continue
		}
		mounted := false
		for _, d := range l.drives {
			if d.cart == c {
				mounted = true
				break
			}
		}
		if !mounted {
			return c, nil
		}
	}
	return nil, ErrNoScratch
}

// Mount loads cartridge c into drive d via the robot. The caller must
// hold the drive. Any currently mounted cartridge is unloaded first.
// The robot arm is held only for the physical exchange; drive load and
// label verification proceed on the drive's own time, so a multi-drive
// library mounts largely in parallel.
func (l *Library) Mount(d *Drive, c *Cartridge) error {
	if d.down {
		return fmt.Errorf("%w: %s", ErrDriveDown, d.Name)
	}
	for _, other := range l.drives {
		if other != d && other.cart == c {
			return fmt.Errorf("tape: %s already mounted in %s", c.Label, other.Name)
		}
	}
	if d.cart != nil {
		if err := d.Unmount(); err != nil {
			return err
		}
		l.exchange(d)
	}
	l.exchange(d)
	d.mount(c)
	return nil
}

// ForceEject pulls the cartridge out of a drive with the robot alone —
// the recovery move for a cartridge stuck in a dead drive. No rewind or
// unload time is charged (the drive cannot cooperate); only the robot
// exchange. It is a no-op on an empty drive. The ejected cartridge (if
// any) is returned and immediately eligible for mounting elsewhere.
func (l *Library) ForceEject(d *Drive) *Cartridge {
	c := d.cart
	if c == nil {
		return nil
	}
	l.exchange(d)
	d.setMountedInfo(c.Label, 0)
	d.cart = nil
	d.lastClient = ""
	d.pos = 0
	return c
}

// UpDrives returns the drives not currently failed, in fixed order.
func (l *Library) UpDrives() []*Drive {
	out := make([]*Drive, 0, len(l.drives))
	for _, d := range l.drives {
		if !d.down {
			out = append(out, d)
		}
	}
	return out
}

// MountedIn returns the drive currently holding c, or nil.
func (l *Library) MountedIn(c *Cartridge) *Drive {
	for _, d := range l.drives {
		if d.cart == c {
			return d
		}
	}
	return nil
}

// exchange charges one robot arm movement.
func (l *Library) exchange(d *Drive) {
	l.ctrExchanges.Inc()
	l.robot.Acquire(1)
	l.clock.Sleep(d.spec.RobotTime)
	l.robot.Release(1)
}

// TotalStats sums the stats of every drive.
func (l *Library) TotalStats() Stats {
	var total Stats
	for _, d := range l.drives {
		s := d.stats
		total.Mounts += s.Mounts
		total.Unmounts += s.Unmounts
		total.LabelVerifies += s.LabelVerifies
		total.Seeks += s.Seeks
		total.Rewinds += s.Rewinds
		total.FilesWritten += s.FilesWritten
		total.FilesRead += s.FilesRead
		total.BytesWritten += s.BytesWritten
		total.BytesRead += s.BytesRead
		total.BusyTime += s.BusyTime
		total.TransferTime += s.TransferTime
		total.IOErrors += s.IOErrors
		total.CorruptOps += s.CorruptOps
	}
	return total
}
