// Package federation implements §6.4's future-work proposal: "By
// leveraging the remote file system feature of GPFS, it might be
// possible to tether multiple archive file systems together thus
// allowing for multiple TSM servers." A Federation partitions the
// archive namespace across sites — each site one archive plant with
// its own archive file system, TSM server, shadow database and HSM
// engine — while presenting a single namespace to callers. This
// removes the paper's single point of failure and multiplies metadata
// transaction capacity, at the cost of the cross-site coordination the
// paper warns native support would avoid.
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
)

// Errors.
var (
	ErrSiteDown = errors.New("federation: site is down")
	errNoSites  = errors.New("federation: no sites")
)

// Federation is the tethered namespace.
type Federation struct {
	clock *simtime.Clock
	reg   *faults.Registry
	sites []*Site
	wan   []*wanLink
	rep   *Replicator
}

// New assembles a federation over the given plants, one Site per plant
// in the order given, each named by its plant's Options.Site. Each
// site's health binds to reg under the "site:<name>" component, making
// the registry the single mechanism for site failure: scheduled events
// (Window, FailAt) take sites down, and Site.SetDown is sugar for an
// immediate registry event. Join the sites with AddWANLink before
// replicating or routing across them, and call InstallFaults to expand
// site kills into their constituents.
func New(clock *simtime.Clock, reg *faults.Registry, plants ...*archive.System) (*Federation, error) {
	if len(plants) == 0 {
		return nil, errNoSites
	}
	f := &Federation{clock: clock, reg: reg}
	for _, p := range plants {
		name := p.Opts.Site
		f.sites = append(f.sites, &Site{Name: name, System: p, status: reg.ComponentStatus(faults.SiteComponent(name))})
	}
	return f, nil
}

// Sites returns the member sites in construction order.
func (f *Federation) Sites() []*Site { return f.sites }

// SiteFor routes a path to its owning site by hashing the first path
// component (the "project" level): a whole project lives in one site,
// preserving co-location and single-site recalls.
func (f *Federation) SiteFor(path string) *Site {
	h := fnv.New32a()
	h.Write([]byte(topComponent(path)))
	return f.sites[int(h.Sum32())%len(f.sites)]
}

func topComponent(p string) string {
	p = strings.TrimPrefix(p, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// up returns the owning site or ErrSiteDown.
func (f *Federation) up(path string) (*Site, error) {
	s := f.SiteFor(path)
	if s.down() {
		return nil, fmt.Errorf("%w: %s owns %s", ErrSiteDown, s.Name, path)
	}
	return s, nil
}

// Stat resolves a path in its owning site.
func (f *Federation) Stat(path string) (pfs.Info, error) {
	s, err := f.up(path)
	if err != nil {
		return pfs.Info{}, err
	}
	return s.Archive.Stat(path)
}

// Outcome is the federation-wide result of one Migrate or Recall call.
type Outcome[R any] struct {
	// Sites maps site name -> that site engine's result.
	Sites map[string]R
	// Skipped maps a down site's name -> the paths it owns that were
	// dropped from this call, in input order. This is the requeue list:
	// a DR driver feeds skipped migrations back into Migrate once the
	// site returns, and reroutes skipped recalls to replica sites
	// (Replicator.FailoverRecall), so a site outage delays those files
	// instead of losing them.
	Skipped map[string][]string
}

// SkippedCount totals the paths dropped because their owner was down.
func (o Outcome[R]) SkippedCount() int {
	n := 0
	for _, paths := range o.Skipped {
		n += len(paths)
	}
	return n
}

// SkippedPaths flattens the per-site skip lists, sorted by site name
// and in input order within a site — ready to feed back into Migrate.
func (o Outcome[R]) SkippedPaths() []string {
	sites := make([]string, 0, len(o.Skipped))
	for name := range o.Skipped {
		sites = append(sites, name)
	}
	sort.Strings(sites)
	var out []string
	for _, name := range sites {
		out = append(out, o.Skipped[name]...)
	}
	return out
}

// fanOut partitions items by owning site and runs each live site's
// share on its own actor, in parallel. Actors spawn in site
// construction order, never in map order, so the simulation stays
// bit-exact from run to run. Items owned by a down site are skipped:
// the healthy sites complete, the skipped paths come back in the
// outcome's per-site Skipped lists for requeueing, and the call still
// reports ErrSiteDown so a caller that ignores the outcome cannot
// mistake a partial campaign for a complete one.
func fanOut[T, R any](f *Federation, items []T, path func(T) string, run func(*Site, []T) (R, error)) (Outcome[R], error) {
	out := Outcome[R]{Sites: make(map[string]R), Skipped: make(map[string][]string)}
	shares := make(map[*Site][]T)
	for _, it := range items {
		s := f.SiteFor(path(it))
		if s.down() {
			out.Skipped[s.Name] = append(out.Skipped[s.Name], path(it))
			continue
		}
		shares[s] = append(shares[s], it)
	}
	var firstErr error
	wg := simtime.NewWaitGroup(f.clock)
	for _, s := range f.sites {
		share, ok := shares[s]
		if !ok {
			continue
		}
		wg.Add(1)
		f.clock.Go(func() {
			defer wg.Done()
			res, err := run(s, share)
			out.Sites[s.Name] = res
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("federation: site %s: %w", s.Name, err)
			}
		})
	}
	wg.Wait()
	if firstErr == nil && len(out.Skipped) > 0 {
		firstErr = fmt.Errorf("%w: %d path(s) owned by failed sites", ErrSiteDown, out.SkippedCount())
	}
	return out, firstErr
}

// Migrate migrates each site's share of the candidate files on that
// site's engine, in parallel; see fanOut for down sites.
func (f *Federation) Migrate(files []pfs.Info, opt hsm.MigrateOptions) (Outcome[hsm.MigrateResult], error) {
	return fanOut(f, files, func(i pfs.Info) string { return i.Path },
		func(s *Site, share []pfs.Info) (hsm.MigrateResult, error) { return s.HSM.Migrate(share, opt) })
}

// Recall recalls each site's share of the paths with the given mode,
// in parallel; see fanOut for down sites.
func (f *Federation) Recall(paths []string, mode hsm.RecallMode) (Outcome[hsm.RecallResult], error) {
	return fanOut(f, paths, func(p string) string { return p },
		func(s *Site, share []string) (hsm.RecallResult, error) { return s.HSM.Recall(share, mode) })
}

// HealthySlice returns the names of healthy sites, sorted — the
// namespace fraction that survives a server failure.
func (f *Federation) HealthySlice() []string {
	var out []string
	for _, s := range f.sites {
		if !s.down() {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}
