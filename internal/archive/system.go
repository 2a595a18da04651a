// Package archive assembles the complete COTS Parallel Archive System
// of the paper's Figure 7: the scratch parallel file system (Panasas),
// the FTA cluster joined by two 10GigE trunks, the archive parallel
// file system (GPFS with ILM pools), the backup/archive server (TSM)
// with LAN-free movers, the LTO-4 tape library, the indexed shadow
// database, the HSM engine, the trashcan and synchronous deleter, and
// PFTool on top. This is the package downstream users interact with;
// everything below it is a subsystem.
package archive

import (
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/hsm"
	"repro/internal/ilm"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/tape"
	"repro/internal/trash"
	"repro/internal/tsm"
)

// Options sizes a deployment. DefaultOptions reproduces the paper's.
type Options struct {
	Cluster    cluster.Config
	TapeDrives int
	Cartridges int
	Robots     int
	TapeSpec   tape.Spec
	TSM        tsm.Config
	HSM        hsm.Config
	Scratch    pfs.Config
	Archive    pfs.Config
	// ShadowQueryCost is the per-lookup cost of the indexed shadow DB.
	ShadowQueryCost time.Duration
	// SmallFileLimit drives the archive placement policy: files below
	// it land in the slow pool.
	SmallFileLimit int64
	// CopyPoolCartridges, when positive, gives TSM a copy storage pool
	// of that many extra cartridges: BackupPool duplicates primary data
	// onto them and the scrubber repairs damaged primaries from them.
	CopyPoolCartridges int
	// Site names one site of a multi-site plant on a shared clock. Every
	// part is named for it, so a fault component names one site's part:
	// machines <site>-fta01.., <site>-trunk, gpfs-<site>, panfs-<site>,
	// <site>-drive00.., <site>-VOL0001.., copy-pool cp-<site>-000.., TSM
	// server tsm:<site>; its tape, TSM and HSM series carry site=<name>.
	// Empty for a plant alone on its clock.
	Site string
}

// DefaultOptions returns the §4.3.1 deployment: 15 x64 machines (10
// movers), 100 TB of FC disk, 24 LTO-4 drives, one TSM server, two
// 10GigE trunks.
func DefaultOptions() Options {
	return Options{
		Cluster:         cluster.RoadrunnerConfig(),
		TapeDrives:      24,
		Cartridges:      4096,
		Robots:          2,
		TapeSpec:        tape.LTO4(),
		TSM:             tsm.DefaultConfig(),
		HSM:             hsm.Config{},
		Scratch:         pfs.PanasasConfig("panfs"),
		Archive:         pfs.GPFSConfig("gpfs"),
		ShadowQueryCost: 100 * time.Microsecond,
		SmallFileLimit:  1e6,
	}
}

// System is one wired deployment.
type System struct {
	Clock   *simtime.Clock
	Opts    Options
	Fabric  *fabric.Fabric
	Scratch *pfs.FS
	Archive *pfs.FS
	Cluster *cluster.Cluster
	Library *tape.Library
	TSM     *tsm.Server
	Shadow  *metadb.DB
	HSM     *hsm.Engine
	Trash   *trash.Can
	Deleter *trash.Deleter
	Recon   *trash.Reconciler
}

// New builds a deployment on the clock. It must be called from outside
// or inside an actor before jobs run; the trashcan directory is created
// lazily on first use if the call site is not an actor.
func New(clock *simtime.Clock, opts Options) *System {
	// The scratch tier sits on the far side of the trunk: attach its
	// pools at the compute hub so every scratch<->archive route crosses
	// the trunk and a mover NIC (Fig. 7).
	if len(opts.Scratch.Attach) == 0 {
		opts.Scratch.Attach = []string{fabric.Compute}
	}
	copyPrefix := "copy"
	var scope []string
	if opts.Site != "" {
		opts.Cluster.Site = opts.Site
		opts.Scratch.Name += "-" + opts.Site
		opts.Archive.Name += "-" + opts.Site
		copyPrefix = "cp-" + opts.Site + "-"
		scope = []string{"site", opts.Site}
	}
	s := &System{
		Clock:   clock,
		Opts:    opts,
		Fabric:  fabric.Of(clock),
		Scratch: pfs.New(clock, opts.Scratch),
		Archive: pfs.New(clock, opts.Archive),
		Cluster: cluster.New(clock, opts.Cluster),
	}
	s.Library = tape.NewLibrary(clock, opts.TapeDrives, opts.Cartridges, opts.Robots, opts.TapeSpec, scope...)
	s.TSM = tsm.NewServer(clock, opts.TSM, s.Library)
	if opts.CopyPoolCartridges > 0 {
		s.TSM.AddCopyPool(copyPrefix, opts.CopyPoolCartridges, opts.TapeSpec.Capacity)
	}
	s.Shadow = metadb.New(clock, opts.ShadowQueryCost)
	s.TSM.OnChange(s.Shadow.Apply)
	s.HSM = hsm.New(clock, s.Archive, s.TSM, s.Shadow, s.Cluster.Nodes(), opts.HSM)
	s.Deleter = trash.NewDeleter(s.Archive, s.TSM, s.Shadow)
	s.Recon = trash.NewReconciler(s.Archive, s.TSM)
	return s
}

// NewDefault builds the paper's deployment.
func NewDefault(clock *simtime.Clock) *System { return New(clock, DefaultOptions()) }

// TrashCan returns (creating on first use) the archive trashcan.
func (s *System) TrashCan() (*trash.Can, error) {
	if s.Trash != nil {
		return s.Trash, nil
	}
	can, err := trash.NewCan(s.Archive, "/.trash")
	if err != nil {
		return nil, err
	}
	s.Trash = can
	return can, nil
}

// Pfcp archives src (on scratch) to dst (on the archive FS) — the
// forward direction of §5. The archive's ILM placement policy routes
// small files to the slow pool (§4.2.1).
func (s *System) Pfcp(src, dst string, tun pftool.Tunables) (pftool.Result, error) {
	placement := s.Placement()
	return pftool.Run(pftool.Request{
		Op: pftool.OpCopy, Src: src, Dst: dst,
		SrcFS: s.Scratch, DstFS: s.Archive,
		Nodes:     s.Cluster.MachineList(),
		Restorer:  s.HSM,
		Placement: &placement,
		Tunables:  tun,
	})
}

// PfcpRetrieve copies src (on the archive FS, possibly on tape) back to
// dst on scratch, exercising the TapeProc restore path.
func (s *System) PfcpRetrieve(src, dst string, tun pftool.Tunables) (pftool.Result, error) {
	return pftool.Run(pftool.Request{
		Op: pftool.OpCopy, Src: src, Dst: dst,
		SrcFS: s.Archive, DstFS: s.Scratch,
		Nodes:    s.Cluster.MachineList(),
		Restorer: s.HSM,
		Tunables: tun,
	})
}

// Pfls lists a tree on the named side ("scratch" or "archive").
func (s *System) Pfls(side, src string, tun pftool.Tunables) (pftool.Result, error) {
	return s.PflsTo(side, src, tun, nil)
}

// PflsTo is Pfls with the OutPutProc writing to out (for verbose
// listings).
func (s *System) PflsTo(side, src string, tun pftool.Tunables, out io.Writer) (pftool.Result, error) {
	fs := s.Scratch
	if side == "archive" {
		fs = s.Archive
	}
	return pftool.Run(pftool.Request{
		Op: pftool.OpList, Src: src,
		SrcFS:    fs,
		Nodes:    s.Cluster.MachineList(),
		Tunables: tun,
		Output:   out,
	})
}

// Pfcm byte-compares a scratch tree against its archive copy.
func (s *System) Pfcm(src, dst string, tun pftool.Tunables) (pftool.Result, error) {
	return pftool.Run(pftool.Request{
		Op: pftool.OpCompare, Src: src, Dst: dst,
		SrcFS: s.Scratch, DstFS: s.Archive,
		Nodes:    s.Cluster.MachineList(),
		Tunables: tun,
	})
}

// MigrateTree migrates every resident file under root on the archive FS
// to tape using the parallel data migrator.
func (s *System) MigrateTree(root string, opt hsm.MigrateOptions) (hsm.MigrateResult, error) {
	list, err := ilm.RunList(s.Archive, ilm.ListPolicy{
		Name:  "migrate-" + root,
		Where: ilm.And(ilm.IsFile(), ilm.PathPrefix(root), ilm.StateIs(pfs.Resident)),
	})
	if err != nil {
		return hsm.MigrateResult{}, err
	}
	return s.HSM.Migrate(list, opt)
}

// Scrubber builds a tape scrubber for this deployment. Its
// repair-from-source fallback re-stages objects whose file is still
// premigrated (data resident on the archive FS) when the copy pool
// cannot help; callers may override any field via cfg first.
func (s *System) Scrubber(cfg tsm.ScrubConfig) *tsm.Scrubber {
	if cfg.RepairFromSource == nil {
		cfg.RepairFromSource = func(o tsm.Object) bool {
			_, st, err := s.Archive.Lookup(o.Path)
			return err == nil && st == pfs.Premigrated
		}
	}
	return tsm.NewScrubber(s.TSM, cfg)
}

// Placement returns the archive's ILM placement policy.
func (s *System) Placement() ilm.Placement {
	return ilm.ArchivePlacement(s.Opts.SmallFileLimit)
}
