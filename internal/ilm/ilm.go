// Package ilm implements the policy layer the paper leans on from GPFS
// 3.2: placement policies (choose a storage pool at create time — the
// archive sends small files to a slow pool), list policies (scan the
// file system and emit candidate lists, which the parallel data
// migrator consumes instead of GPFS's own migration policy, §4.2.4),
// and threshold/migration rules toward external pools (tape via HSM).
package ilm

import (
	"sort"
	"strings"
	"time"

	"repro/internal/pfs"
)

// A Predicate selects files during a policy scan.
type Predicate func(info pfs.Info, now time.Duration) bool

// And composes predicates conjunctively.
func And(ps ...Predicate) Predicate {
	return func(i pfs.Info, now time.Duration) bool {
		for _, p := range ps {
			if !p(i, now) {
				return false
			}
		}
		return true
	}
}

// IsFile matches regular files (directories never migrate).
func IsFile() Predicate {
	return func(i pfs.Info, _ time.Duration) bool { return !i.IsDir() }
}

// sizeLess matches files smaller than n bytes.
func sizeLess(n int64) Predicate {
	return func(i pfs.Info, _ time.Duration) bool { return i.Size < n }
}

// PathPrefix matches files under the given directory prefix.
func PathPrefix(prefix string) Predicate {
	prefix = strings.TrimSuffix(prefix, "/")
	return func(i pfs.Info, _ time.Duration) bool {
		return i.Path == prefix || strings.HasPrefix(i.Path, prefix+"/")
	}
}

// inPool matches files placed in the named pool.
func inPool(pool string) Predicate {
	return func(i pfs.Info, _ time.Duration) bool { return i.Pool == pool }
}

// StateIs matches files in the given migration state.
func StateIs(s pfs.MigState) Predicate {
	return func(i pfs.Info, _ time.Duration) bool { return i.State == s }
}

// RunList is the GPFS LIST rule whose output feeds the parallel data
// migrator: it scans fs and returns the files matching where (nil
// matches every file) in deterministic walk order. The scan charges the
// calibrated per-inode cost.
func RunList(fs *pfs.FS, where Predicate) ([]pfs.Info, error) {
	now := fs.Clock().Now()
	var out []pfs.Info
	err := fs.Scan(func(i pfs.Info) error {
		if i.IsDir() {
			return nil
		}
		if where == nil || where(i, now) {
			out = append(out, i)
		}
		return nil
	})
	return out, err
}

// placementRule routes new files to a pool.
type placementRule struct {
	// Where inspects the prospective file (only Path and Size are
	// populated at placement time).
	Where Predicate
	Pool  string
}

// Placement is an ordered rule list with a default pool.
type Placement struct {
	rules   []placementRule
	Default string
}

// Choose returns the pool for a file about to be created.
func (p Placement) Choose(path string, size int64, now time.Duration) string {
	probe := pfs.Info{}
	probe.Path = path
	probe.Size = size
	for _, r := range p.rules {
		if r.Where == nil || r.Where(probe, now) {
			return r.Pool
		}
	}
	return p.Default
}

// ArchivePlacement is the paper's archive placement: everything lands
// in the fast FC pool except small files, which go to the slow pool
// (§4.2.1).
func ArchivePlacement(smallFileLimit int64) Placement {
	return Placement{
		rules: []placementRule{
			{Where: sizeLess(smallFileLimit), Pool: "slow"}, // small to slow
		},
		Default: "fast",
	}
}

// ThresholdPolicy triggers migration when a pool passes a fill
// fraction, selecting victims by the Where predicate until the pool is
// back under the low watermark — the GPFS THRESHOLD rule driving the
// external (tape) pool.
type ThresholdPolicy struct {
	Pool  string
	High  float64 // start migrating at this fill fraction
	Low   float64 // stop once below this
	Where Predicate
}

// Candidates returns the files to migrate, oldest first, sized to bring
// the pool below the low watermark. It returns nil when the pool is
// under the high watermark.
func (tp ThresholdPolicy) Candidates(fs *pfs.FS) ([]pfs.Info, error) {
	pool, err := fs.Pool(tp.Pool)
	if err != nil {
		return nil, err
	}
	cap := pool.Spec.Capacity
	if float64(pool.Used()) < tp.High*float64(cap) {
		return nil, nil
	}
	list, err := RunList(fs, And(IsFile(), inPool(tp.Pool), StateIs(pfs.Resident), orTrue(tp.Where)))
	if err != nil {
		return nil, err
	}
	// Oldest first: steady bytes leave before hot ones.
	sortByModTime(list)
	need := pool.Used() - int64(tp.Low*float64(cap))
	var out []pfs.Info
	var freed int64
	for _, f := range list {
		if freed >= need {
			break
		}
		out = append(out, f)
		freed += f.Size
	}
	return out, nil
}

func orTrue(p Predicate) Predicate {
	if p == nil {
		return func(pfs.Info, time.Duration) bool { return true }
	}
	return p
}

func sortByModTime(list []pfs.Info) {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].ModTime != list[j].ModTime {
			return list[i].ModTime < list[j].ModTime
		}
		return list[i].Path < list[j].Path
	})
}
