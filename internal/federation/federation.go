// Package federation implements §6.4's future-work proposal: "By
// leveraging the remote file system feature of GPFS, it might be
// possible to tether multiple archive file systems together thus
// allowing for multiple TSM servers." A Federation partitions the
// archive namespace across cells — each cell an archive file system
// with its own TSM server, shadow database, and HSM engine — while
// presenting a single namespace to callers. This removes the paper's
// single point of failure and multiplies metadata transaction capacity,
// at the cost of the cross-cell coordination the paper warns native
// support would avoid.
package federation

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/tsm"
)

// Errors.
var (
	ErrCellDown = errors.New("federation: cell is down")
	ErrNoCells  = errors.New("federation: no cells")
)

// Cell is one archive plant — its archive file system, TSM server,
// shadow database and HSM engine — under a federation-wide name.
type Cell struct {
	Name string
	*archive.System

	// status is the cell's health in the fault registry, bound by New.
	status *faults.Status
}

// Down reports whether the cell is failed.
func (c *Cell) Down() bool { return c.status.Down() }

// SetDown fails or revives the cell (failure injection for the single
// point-of-failure study). It routes through the fault registry, so
// the event lands in the registry's log and reaches its subscribers
// like any other injected fault.
func (c *Cell) SetDown(down bool) { c.status.SetDown(down) }

// Federation is the tethered namespace.
type Federation struct {
	clock *simtime.Clock
	cells []*Cell

	// Multi-site state — empty for a single-site federation; populated
	// by NewMultiSite (see site.go).
	sites   []*Site
	siteOf  map[*Cell]*Site
	wan     []*wanLink
	wanDown map[string]bool
	rep     *Replicator
}

// New assembles a federation over the given cells and binds each
// cell's health to reg under the "cell:<name>" component, making the
// registry the single mechanism for cell failure: scheduled events
// (Window, FailAt) take cells down, and Cell.SetDown is sugar for an
// immediate registry event.
func New(clock *simtime.Clock, reg *faults.Registry, cells ...*Cell) (*Federation, error) {
	if len(cells) == 0 {
		return nil, ErrNoCells
	}
	for _, c := range cells {
		c.status = reg.ComponentStatus(faults.CellComponent(c.Name))
	}
	return &Federation{clock: clock, cells: cells}, nil
}

// Cells returns the member cells.
func (f *Federation) Cells() []*Cell { return f.cells }

// CellFor routes a path to its owning cell by hashing the first path
// component (the "project" level): a whole project lives in one cell,
// preserving co-location and single-cell recalls.
func (f *Federation) CellFor(path string) *Cell {
	h := fnv.New32a()
	h.Write([]byte(topComponent(path)))
	return f.cells[int(h.Sum32())%len(f.cells)]
}

func topComponent(p string) string {
	p = strings.TrimPrefix(p, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// up returns the owning cell or ErrCellDown.
func (f *Federation) up(path string) (*Cell, error) {
	c := f.CellFor(path)
	if c.Down() {
		return nil, fmt.Errorf("%w: %s owns %s", ErrCellDown, c.Name, path)
	}
	return c, nil
}

// Stat resolves a path in its owning cell.
func (f *Federation) Stat(path string) (pfs.Info, error) {
	c, err := f.up(path)
	if err != nil {
		return pfs.Info{}, err
	}
	return c.Archive.Stat(path)
}

// MigrateOutcome is the federation-wide result of one Migrate call.
type MigrateOutcome struct {
	// Cells maps cell name -> that cell engine's result.
	Cells map[string]hsm.MigrateResult
	// Skipped maps a down cell's name -> the paths it owns that were
	// dropped from this call, in input order. This is the requeue list:
	// a DR driver feeds it back into Migrate once the cell returns, so
	// a site outage delays those files instead of losing them.
	Skipped map[string][]string
}

// SkippedCount totals the files dropped because their owner was down.
func (o MigrateOutcome) SkippedCount() int {
	n := 0
	for _, paths := range o.Skipped {
		n += len(paths)
	}
	return n
}

// SkippedPaths flattens the per-cell skip lists, sorted by cell name
// and in input order within a cell — ready to feed back into Migrate.
func (o MigrateOutcome) SkippedPaths() []string {
	cells := make([]string, 0, len(o.Skipped))
	for name := range o.Skipped {
		cells = append(cells, name)
	}
	sort.Strings(cells)
	var out []string
	for _, name := range cells {
		out = append(out, o.Skipped[name]...)
	}
	return out
}

// RecallOutcome is the federation-wide result of one Recall call.
type RecallOutcome struct {
	// Cells maps cell name -> that cell engine's result.
	Cells map[string]hsm.RecallResult
	// Skipped maps a down cell's name -> the paths it owns that were
	// dropped from this call — the list a DR driver reroutes to
	// replica sites (Replicator.FailoverRecall) or retries after
	// repair.
	Skipped map[string][]string
}

// SkippedCount totals the paths dropped because their owner was down.
func (o RecallOutcome) SkippedCount() int {
	n := 0
	for _, paths := range o.Skipped {
		n += len(paths)
	}
	return n
}

// SkippedPaths flattens the per-cell skip lists, sorted by cell name
// and in input order within a cell.
func (o RecallOutcome) SkippedPaths() []string {
	cells := make([]string, 0, len(o.Skipped))
	for name := range o.Skipped {
		cells = append(cells, name)
	}
	sort.Strings(cells)
	var out []string
	for _, name := range cells {
		out = append(out, o.Skipped[name]...)
	}
	return out
}

// sortedCells returns byCell's keys sorted by cell name. Fan-out MUST spawn
// in this order: ranging the map directly would seed the cell actors
// in a different order each run and break the simulator's bit-exact
// determinism contract.
func sortedCells[T any](byCell map[*Cell]T) []*Cell {
	order := make([]*Cell, 0, len(byCell))
	for c := range byCell {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })
	return order
}

// Migrate partitions candidate files by owning cell and migrates each
// cell's share on its own engine, in parallel. Files that live in a
// down cell are skipped: the healthy cells complete, the skipped paths
// come back in the outcome's per-cell Skipped lists for requeueing,
// and the call still reports ErrCellDown so a caller that ignores the
// outcome cannot mistake a partial campaign for a complete one.
func (f *Federation) Migrate(files []pfs.Info, opt hsm.MigrateOptions) (MigrateOutcome, error) {
	out := MigrateOutcome{
		Cells:   make(map[string]hsm.MigrateResult),
		Skipped: make(map[string][]string),
	}
	byCell := make(map[*Cell][]pfs.Info)
	for _, file := range files {
		c := f.CellFor(file.Path)
		if c.Down() {
			out.Skipped[c.Name] = append(out.Skipped[c.Name], file.Path)
			continue
		}
		byCell[c] = append(byCell[c], file)
	}
	var firstErr error
	wg := simtime.NewWaitGroup(f.clock)
	for _, c := range sortedCells(byCell) {
		c, share := c, byCell[c]
		wg.Add(1)
		f.clock.Go(func() {
			defer wg.Done()
			res, err := c.HSM.Migrate(share, opt)
			out.Cells[c.Name] = res
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("federation: cell %s: %w", c.Name, err)
			}
		})
	}
	wg.Wait()
	if firstErr == nil && len(out.Skipped) > 0 {
		firstErr = fmt.Errorf("%w: %d file(s) owned by failed cells", ErrCellDown, out.SkippedCount())
	}
	return out, firstErr
}

// Recall partitions paths by owning cell and recalls each share in
// parallel with the given mode. Down-cell paths surface in the
// outcome's Skipped lists exactly as in Migrate.
func (f *Federation) Recall(paths []string, mode hsm.RecallMode) (RecallOutcome, error) {
	out := RecallOutcome{
		Cells:   make(map[string]hsm.RecallResult),
		Skipped: make(map[string][]string),
	}
	byCell := make(map[*Cell][]string)
	for _, p := range paths {
		c := f.CellFor(p)
		if c.Down() {
			out.Skipped[c.Name] = append(out.Skipped[c.Name], p)
			continue
		}
		byCell[c] = append(byCell[c], p)
	}
	var firstErr error
	wg := simtime.NewWaitGroup(f.clock)
	for _, c := range sortedCells(byCell) {
		c, share := c, byCell[c]
		wg.Add(1)
		f.clock.Go(func() {
			defer wg.Done()
			res, err := c.HSM.Recall(share, mode)
			out.Cells[c.Name] = res
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("federation: cell %s: %w", c.Name, err)
			}
		})
	}
	wg.Wait()
	if firstErr == nil && len(out.Skipped) > 0 {
		firstErr = fmt.Errorf("%w: %d path(s) owned by failed cells", ErrCellDown, out.SkippedCount())
	}
	return out, firstErr
}

// QueryByPath answers the unindexed TSM path query against the single
// owning cell: each cell's database holds only its partition, so the
// scan is 1/N the size of a monolithic server's.
func (f *Federation) QueryByPath(path string) (tsm.Object, error) {
	c, err := f.up(path)
	if err != nil {
		return tsm.Object{}, err
	}
	return c.TSM.QueryByPath(path)
}

// HealthySlice returns the names of healthy cells, sorted — the
// namespace fraction that survives a server failure.
func (f *Federation) HealthySlice() []string {
	var out []string
	for _, c := range f.cells {
		if !c.Down() {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}
