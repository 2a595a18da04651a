// Package hsm is the hierarchical storage management engine gluing the
// archive file system (pfs) to the backup/archive product (tsm): the
// role TSM's HSM client plays in the paper, plus the paper's own
// improvements layered on top:
//
//   - the parallel data migrator of §4.2.4, which replaces the GPFS
//     migration policy with a list policy whose candidates are sorted
//     and distributed by size so every machine finishes at the same
//     time;
//   - the tape-ordered, machine-sticky recall of §4.2.5/§6.2, which
//     groups recalls by volume, sorts them by tape sequence, and pins
//     each volume to one machine so the tape streams front-to-back with
//     no label re-verification hand-offs (the naive mode that sprays
//     requests round-robin across recall daemons is retained as the
//     baseline);
//   - small-file aggregation (§6.1's proposed fix), which bundles files
//     below a threshold into large tape objects so the drive stays
//     streaming.
package hsm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/tsm"
	"repro/internal/vfs"
)

// Recall routing modes.
type RecallMode int

const (
	// RecallNaive assigns requests to recall daemons round-robin in
	// arrival order, with no tape awareness — stock HSM behaviour.
	RecallNaive RecallMode = iota
	// RecallOrdered groups by volume, sorts by tape sequence, and pins
	// each volume to a single machine — the paper's optimization.
	RecallOrdered
)

// Errors.
var (
	errNotMigrated = errors.New("hsm: file is not migrated")
	errNoNodes     = errors.New("hsm: no mover nodes configured")
)

// Config tunes the engine.
type Config struct {
	// AggregateThreshold bundles files smaller than this into large
	// tape objects; zero disables aggregation.
	AggregateThreshold int64
	// AggregateTarget is the bundle size aggregation packs toward.
	AggregateTarget int64
	// Group is the TSM co-location group for stored objects.
	Group string
}

// aggMember locates one small file inside an aggregate object.
type aggMember struct {
	path  string
	id    vfs.FileID
	bytes int64
}

// Engine drives migration and recall for one archive deployment.
type Engine struct {
	clock  *simtime.Clock
	fs     *pfs.FS
	srv    *tsm.Server
	shadow *metadb.DB
	nodes  []*cluster.Node
	cfg    Config
	sch    *sched.Scheduler

	aggOf      map[vfs.FileID]uint64  // member file -> aggregate object ID
	aggMembers map[uint64][]aggMember // aggregate object ID -> members
	routes     map[string]fabric.Path // node name -> pool..SAN fabric route

	tel         *telemetry.Registry
	ctrMigFiles *telemetry.Counter
	ctrMigBytes *telemetry.Counter
	ctrRecFiles *telemetry.Counter
	ctrRecBytes *telemetry.Counter
	ctrRounds   *telemetry.Counter
	ctrRequeued *telemetry.Counter
	gBacklog    *telemetry.Gauge
}

// New creates an engine. nodes are the machines running HSM movers and
// recall daemons (the FTA cluster). shadow, when non-nil, locates
// files for recall; the engine never writes it (it follows srv's
// OnChange feed).
func New(clock *simtime.Clock, fs *pfs.FS, srv *tsm.Server, shadow *metadb.DB, nodes []*cluster.Node, cfg Config) *Engine {
	if cfg.AggregateTarget <= 0 {
		cfg.AggregateTarget = 4e9
	}
	e := &Engine{
		clock:      clock,
		fs:         fs,
		srv:        srv,
		shadow:     shadow,
		nodes:      nodes,
		cfg:        cfg,
		aggOf:      make(map[vfs.FileID]uint64),
		aggMembers: make(map[uint64][]aggMember),
		routes:     make(map[string]fabric.Path),
	}
	e.tel = srv.Telemetry()
	e.sch = sched.Of(clock)
	e.ctrMigFiles = e.tel.Counter("hsm_migrated_files_total")
	e.ctrMigBytes = e.tel.Counter("hsm_migrated_bytes_total")
	e.ctrRecFiles = e.tel.Counter("hsm_recalled_files_total")
	e.ctrRecBytes = e.tel.Counter("hsm_recalled_bytes_total")
	e.ctrRounds = e.tel.Counter("hsm_migration_rounds_total")
	e.ctrRequeued = e.tel.Counter("hsm_requeued_files_total")
	e.gBacklog = e.tel.Gauge("hsm_candidate_backlog")
	return e
}

// partitionRoundRobin splits candidates across n bins in list order —
// the GPFS-policy-engine behaviour the paper replaces: one process can
// end up with all the large files. A single bin is the list itself
// (capacity clipped), not a copy.
func partitionRoundRobin(files []pfs.Info, n int) [][]pfs.Info {
	if n == 1 {
		return [][]pfs.Info{files[:len(files):len(files)]}
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = (len(files) - i + n - 1) / n
	}
	bins := carveBins(len(files), counts)
	for i := range files {
		bins[i%n] = append(bins[i%n], files[i])
	}
	return bins
}

// carveBins cuts one array of total elements into empty bins with room
// for counts[i] each — a pfs.Info is 104 bytes, so a partition copies
// each file once, into its final place, instead of regrowing every bin.
func carveBins(total int, counts []int) [][]pfs.Info {
	backing := make([]pfs.Info, total)
	bins := make([][]pfs.Info, len(counts))
	for i, c := range counts {
		bins[i], backing = backing[:0:c], backing[c:]
	}
	return bins
}

// partitionBalanced sorts candidates by size descending and greedily
// assigns each to the least-loaded bin (LPT scheduling): the paper's
// "combine, sort, and distribute the candidate files by file size
// evenly across machines".
func partitionBalanced(files []pfs.Info, n int) [][]pfs.Info {
	// Sort positions, not the 104-byte files; stable, so equal sizes
	// keep list order.
	order := make([]int32, len(files))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(files[b].Size, files[a].Size) })
	bin := make([]int32, len(files)) // bin[k]: where the k-th largest goes
	counts := make([]int, n)
	loads := make([]int64, n)
	for k, i := range order {
		best := 0
		for b := 1; b < n; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		bin[k] = int32(best)
		counts[best]++
		loads[best] += files[i].Size
	}
	bins := carveBins(len(files), counts)
	for k, i := range order {
		bins[bin[k]] = append(bins[bin[k]], files[i])
	}
	return bins
}

// MigrateOptions tunes one migration run.
type MigrateOptions struct {
	Balanced bool // size-balanced partitioning (vs round-robin)
	// StreamsPerNode runs this many concurrent mover streams on each
	// machine (the GPFS policy engine "may start multiple migrations";
	// zero means one).
	StreamsPerNode int
}

// MigrateResult reports one migration run.
type MigrateResult struct {
	Files       int
	Bytes       int64
	Skipped     int // non-resident or directory entries ignored
	Requeued    int // files reassigned after a mover crash
	Rejected    int // files whose stream the scheduler refused (shed)
	NodeBytes   []int64
	NodeFinish  []simtime.Duration // per-node completion times
	FirstErrors []string
}

// maxRedistributeRounds bounds crash-recovery reassignment: each round
// repartitions unfinished work over the surviving nodes, so more than a
// handful of rounds means nodes are dying faster than work completes.
const maxRedistributeRounds = 8

// upNodeIndices returns the indices of the engine's nodes currently up.
func (e *Engine) upNodeIndices() []int {
	var idx []int
	for i, n := range e.nodes {
		if !n.Down() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Migrate moves the candidate files to tape across the engine's nodes
// in parallel, stubbing them. Candidates
// that are directories or already migrated are skipped. A mover node
// that crashes mid-run aborts its streams at a file boundary; the
// unfinished share is redistributed across surviving nodes in a
// follow-up round, so every file is archived exactly once (nothing a
// crashed stream had not yet stored was stubbed, and nothing stored is
// re-sent).
func (e *Engine) Migrate(candidates []pfs.Info, opt MigrateOptions) (MigrateResult, error) {
	if len(e.nodes) == 0 {
		return MigrateResult{}, errNoNodes
	}
	res := MigrateResult{}
	eligible := func(f *pfs.Info) bool { return !f.IsDir() && f.State == pfs.Resident }
	for i := range candidates {
		if !eligible(&candidates[i]) {
			res.Skipped++
		}
	}
	// The work list is only read, so with nothing to skip — the caller
	// usually filtered already — the candidates serve as they are.
	work := candidates
	if res.Skipped > 0 {
		work = make([]pfs.Info, 0, len(candidates)-res.Skipped)
		for i := range candidates {
			if eligible(&candidates[i]) {
				work = append(work, candidates[i])
			}
		}
	}
	streams := opt.StreamsPerNode
	if streams <= 0 {
		streams = 1
	}
	res.NodeBytes = make([]int64, len(e.nodes))
	res.NodeFinish = make([]simtime.Duration, len(e.nodes))
	runSpan := e.tel.StartSpan("hsm.migrate", "files", strconv.Itoa(len(work)))
	var firstErr error
	remaining := work
	for round := 0; len(remaining) > 0; round++ {
		e.gBacklog.Set(float64(len(remaining)))
		idx := e.upNodeIndices()
		if len(idx) == 0 || round >= maxRedistributeRounds {
			if firstErr == nil {
				firstErr = fmt.Errorf("hsm: %d files unmigrated after %d rounds: %w", len(remaining), round, errNoNodes)
				res.FirstErrors = append(res.FirstErrors, firstErr.Error())
			}
			break
		}
		if round > 0 {
			res.Requeued += len(remaining)
			e.ctrRequeued.Add(float64(len(remaining)))
		}
		e.ctrRounds.Inc()
		var bins [][]pfs.Info
		if opt.Balanced {
			bins = partitionBalanced(remaining, len(idx))
		} else {
			bins = partitionRoundRobin(remaining, len(idx))
		}
		var leftovers []pfs.Info
		wg := simtime.NewWaitGroup(e.clock)
		for bi := range idx {
			i := idx[bi]
			// Each node may run several mover streams; its bin splits
			// round-robin across them (sizes are already balanced).
			round := round
			for _, share := range partitionRoundRobin(bins[bi], streams) {
				if len(share) == 0 {
					continue
				}
				share := share
				var shareBytes int64
				for _, f := range share {
					shareBytes += f.Size
				}
				wg.Add(1)
				e.clock.Go(func() {
					defer wg.Done()
					node := e.nodes[i]
					// Each mover stream is one scheduler admission: the
					// whole share is a single batch-class work item.
					grant := e.sch.Station(sched.StationMigrate).Admit(sched.Item{
						QoS: sched.QoS{}.Or(sched.Batch), Units: shareBytes,
					})
					if gerr := grant.Err(); gerr != nil {
						// Admission refused the stream (brownout shed):
						// abort its span, count the files,
						// and surface the first refusal to the caller.
						sp := runSpan.StartChild("hsm.migrate.node",
							"node", node.Name, "round", strconv.Itoa(round))
						sp.Abort(gerr.Error(), e.srv.DownCause())
						res.Rejected += len(share)
						if firstErr == nil && !errors.Is(gerr, sched.ErrShed) {
							firstErr = gerr
							res.FirstErrors = append(res.FirstErrors, gerr.Error())
						}
						return
					}
					defer grant.Done()
					sp := runSpan.StartChild("hsm.migrate.node",
						"node", node.Name, "round", strconv.Itoa(round))
					files, bytes, left, err := e.migrateOnNode(node, share, sp)
					res.Files += files
					res.Bytes += bytes
					res.NodeBytes[i] += bytes
					res.NodeFinish[i] = e.clock.Now()
					leftovers = append(leftovers, left...)
					if err != nil && firstErr == nil {
						firstErr = err
						res.FirstErrors = append(res.FirstErrors, err.Error())
					}
					switch {
					case err != nil:
						sp.Abort(err.Error(), 0)
					case len(left) > 0:
						// The mover died mid-share: cite the fault event
						// that took the node down, when telemetry saw one.
						cause, _ := e.tel.LastEventFor(faults.NodeComponent(node.Name))
						sp.Abort(fmt.Sprintf("mover %s down, %d files requeued", node.Name, len(left)), cause)
					default:
						sp.End()
					}
				})
			}
		}
		wg.Wait()
		// Requeue in path order: leftovers arrive in per-node completion
		// order, which depends on which movers crashed when. Sorting
		// before the redistribute round makes the round's partition — and
		// with it the whole dispatch schedule — a function of the work
		// alone, so identical runs requeue identically.
		sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].Path < leftovers[j].Path })
		remaining = leftovers
	}
	e.gBacklog.Set(0)
	e.ctrMigFiles.Add(float64(res.Files))
	e.ctrMigBytes.Add(float64(res.Bytes))
	if firstErr != nil {
		runSpan.Abort(firstErr.Error(), 0)
	} else {
		runSpan.End()
	}
	return res, firstErr
}

// migrateOnNode runs one node's share of a migration. If the node
// crashes the stream aborts at a file boundary and the untouched rest
// of the share (including any unflushed aggregate bundle, none of which
// has been stored) comes back as leftover for reassignment.
func (e *Engine) migrateOnNode(node *cluster.Node, files []pfs.Info, parent *telemetry.Span) (nfiles int, nbytes int64, leftover []pfs.Info, err error) {
	pool := e.fs.DefaultPool()
	// One persistent stream carries every store of this share: each
	// object is a segment of the same long-lived flow, so a
	// hundred-thousand-file share costs one fair-share admission
	// instead of one per file.
	stream := e.srv.NewStream(e.route(node))
	if stream != nil {
		defer stream.Close()
	}
	var bundle []pfs.Info
	var bundleBytes int64
	flush := func() error {
		if len(bundle) == 0 {
			return nil
		}
		if err := e.storeAggregate(node, pool, stream, bundle, bundleBytes, parent); err != nil {
			return err
		}
		nfiles += len(bundle)
		nbytes += bundleBytes
		bundle, bundleBytes = nil, 0
		return nil
	}
	for fi, f := range files {
		if node.Down() {
			leftover = append(append(leftover, bundle...), files[fi:]...)
			return nfiles, nbytes, leftover, nil
		}
		if e.cfg.AggregateThreshold > 0 && f.Size < e.cfg.AggregateThreshold {
			bundle = append(bundle, f)
			bundleBytes += f.Size
			if bundleBytes >= e.cfg.AggregateTarget {
				if err := flush(); err != nil {
					return nfiles, nbytes, nil, err
				}
			}
			continue
		}
		if err := e.storeSingle(node, pool, stream, f, parent); err != nil {
			return nfiles, nbytes, nil, err
		}
		nfiles++
		nbytes += f.Size
	}
	if node.Down() {
		leftover = append(leftover, bundle...)
		return nfiles, nbytes, leftover, nil
	}
	if err := flush(); err != nil {
		return nfiles, nbytes, nil, err
	}
	return nfiles, nbytes, nil, nil
}

// route resolves (and caches) the fabric path an HSM mover on node
// drives data over: archive pool array to the node, then its HBA to the
// SAN — the LAN-free path of Fig. 6.
func (e *Engine) route(node *cluster.Node) fabric.Path {
	if p, ok := e.routes[node.Name]; ok {
		return p
	}
	pool := e.fs.DefaultPool()
	p, err := e.fs.Fabric().Route(pool.Endpoint(), node.Name, fabric.SAN)
	if err != nil {
		panic(fmt.Sprintf("hsm: no data path from %s via %s: %v", pool.Endpoint(), node.Name, err))
	}
	e.routes[node.Name] = p
	return p
}

// sumXattr is the stub attribute holding a migrated file's content
// digest (hex). It is written at migration and checked when the file
// lands back on disk — the HSM end of the checksum pipeline.
const sumXattr = "hsm.sum"

// contentSum digests a resident file's content for the catalog; 0
// (digest untracked) when the content is unreadable.
func (e *Engine) contentSum(id vfs.FileID) uint64 {
	c, err := e.fs.ReadContentID(id)
	if err != nil {
		return 0
	}
	return c.Digest()
}

// recordSum writes the stub's copy of the catalog digest before the
// data leaves disk. The attribute write is billed as one metadata
// operation.
func (e *Engine) recordSum(id vfs.FileID, sum uint64) {
	if sum == 0 {
		return
	}
	_ = e.fs.SetXattrID(id, sumXattr, strconv.FormatUint(sum, 16))
	e.fs.Bill(1)
}

// storeSingle stores one file as one tape object and stubs it.
func (e *Engine) storeSingle(node *cluster.Node, pool *pfs.Pool, stream *fabric.Flow, f pfs.Info, parent *telemetry.Span) error {
	sum := e.contentSum(f.ID)
	_, err := e.srv.Store(tsm.StoreRequest{
		Client: node.Name,
		Path:   f.Path,
		FileID: uint64(f.ID),
		Bytes:  f.Size,
		Group:  e.cfg.Group,
		Sum:    sum,
		Route:  e.route(node),
		Stream: stream,
		Parent: parent,
	})
	if err != nil {
		return fmt.Errorf("hsm: migrating %s: %w", f.Path, err)
	}
	e.recordSum(f.ID, sum)
	return e.stub(f.Path, f.ID)
}

// storeAggregate bundles small files into one tape object. Each member
// is stubbed; the aggregate index remembers where members live. The
// bundle's catalog digest folds the member digests in bundle order, so
// damage to any slice of the aggregate changes the whole-object sum.
func (e *Engine) storeAggregate(node *cluster.Node, pool *pfs.Pool, stream *fabric.Flow, members []pfs.Info, total int64, parent *telemetry.Span) error {
	memberSums := make([]uint64, len(members))
	var sum uint64
	for i, m := range members {
		memberSums[i] = e.contentSum(m.ID)
		// FNV-style fold: order-sensitive, like bytes on tape.
		sum = sum*1099511628211 + memberSums[i]
	}
	obj, err := e.srv.Store(tsm.StoreRequest{
		Client: node.Name,
		Path:   fmt.Sprintf("<aggregate:%s:%s+%d>", node.Name, members[0].Path, len(members)),
		Bytes:  total,
		Group:  e.cfg.Group,
		Sum:    sum,
		Route:  e.route(node),
		Stream: stream,
		Parent: parent,
	})
	if err != nil {
		return fmt.Errorf("hsm: migrating aggregate of %d files: %w", len(members), err)
	}
	for i, m := range members {
		e.aggOf[m.ID] = obj.ID
		e.aggMembers[obj.ID] = append(e.aggMembers[obj.ID], aggMember{path: m.Path, id: m.ID, bytes: m.Size})
		e.recordSum(m.ID, memberSums[i])
		if err := e.stub(m.Path, m.ID); err != nil {
			return err
		}
	}
	return nil
}

// stub turns the migrated file at path, whose ID is id, into a stub.
func (e *Engine) stub(path string, id vfs.FileID) error {
	err := e.fs.SetPremigratedID(id)
	if err == nil {
		err = e.fs.PunchID(id)
	}
	if err != nil {
		return fmt.Errorf("hsm: stubbing %s: %w", path, err)
	}
	return nil
}

// recallItem is one resolved recall work unit.
type recallItem struct {
	path   string // "" for a whole aggregate
	id     vfs.FileID
	object uint64
	volume string
	seq    int
	bytes  int64
}

// RecallResult reports one recall run.
type RecallResult struct {
	Files int
	Bytes int64
}

// Recall brings the named migrated files back to disk using mode's
// routing. Paths that are not migrated are skipped silently: already
// resident, unknown, or with no tape copy. Each recall daemon's
// bin passes the hsm.recall station as an expedited Interactive item
// of the default tenant: someone is usually waiting on a recall.
func (e *Engine) Recall(paths []string, mode RecallMode) (RecallResult, error) {
	if len(e.nodes) == 0 {
		return RecallResult{}, errNoNodes
	}
	res := RecallResult{}
	var items []recallItem
	aggWanted := make(map[uint64][]string) // aggregate object -> requested members
	for _, p := range paths {
		id, st, err := e.fs.Lookup(p)
		if err != nil {
			continue
		}
		if st != pfs.Migrated {
			continue // already on disk
		}
		if aggID, ok := e.aggOf[id]; ok {
			aggWanted[aggID] = append(aggWanted[aggID], p)
			continue
		}
		rec, err := e.locate(p, id)
		if err != nil {
			continue
		}
		items = append(items, rec)
	}
	// Aggregate objects are recalled whole; every requested member
	// becomes resident in one tape read.
	aggIDs := make([]uint64, 0, len(aggWanted))
	for id := range aggWanted {
		aggIDs = append(aggIDs, id)
	}
	sort.Slice(aggIDs, func(i, j int) bool { return aggIDs[i] < aggIDs[j] })
	for _, id := range aggIDs {
		obj, err := e.srv.Get(id)
		if err != nil {
			continue
		}
		items = append(items, recallItem{
			path:   "", // marker: aggregate
			object: id,
			volume: obj.Volume,
			seq:    obj.Seq,
			bytes:  obj.Bytes,
		})
	}

	runSpan := e.tel.StartSpan("hsm.recall",
		"mode", recallModeName(mode), "files", strconv.Itoa(len(items)))
	var firstErr error
	remaining := items
	for round := 0; len(remaining) > 0; round++ {
		idx := e.upNodeIndices()
		if len(idx) == 0 || round >= maxRedistributeRounds {
			if firstErr == nil {
				firstErr = fmt.Errorf("hsm: %d recalls abandoned after %d rounds: %w", len(remaining), round, errNoNodes)
			}
			break
		}
		bins := e.routeRecalls(remaining, mode, len(idx))
		var leftovers []recallItem
		wg := simtime.NewWaitGroup(e.clock)
		for bi := range idx {
			bi := bi
			i := idx[bi]
			if len(bins[bi]) == 0 {
				continue
			}
			round := round
			var binBytes int64
			for _, it := range bins[bi] {
				binBytes += it.bytes
			}
			wg.Add(1)
			e.clock.Go(func() {
				defer wg.Done()
				node := e.nodes[i]
				grant := e.sch.Station(sched.StationRecall).Admit(sched.Item{
					QoS:   sched.QoS{}.Or(sched.Interactive),
					Units: binBytes, Expedite: true,
				})
				if gerr := grant.Err(); gerr != nil {
					// The class was shed: abandon the bin, citing the
					// TSM outage while one lasts.
					sp := runSpan.StartChild("hsm.recall.node",
						"node", node.Name, "round", strconv.Itoa(round))
					sp.Abort(gerr.Error(), e.srv.DownCause())
					if firstErr == nil {
						firstErr = gerr
					}
					return
				}
				defer grant.Done()
				sp := runSpan.StartChild("hsm.recall.node",
					"node", node.Name, "round", strconv.Itoa(round))
				left := e.recallOnNode(node, bins[bi], mode, &res, &firstErr, sp)
				leftovers = append(leftovers, left...)
				if len(left) > 0 {
					cause, _ := e.tel.LastEventFor(faults.NodeComponent(node.Name))
					sp.Abort(fmt.Sprintf("daemon node %s down, %d recalls requeued", node.Name, len(left)), cause)
				} else {
					sp.End()
				}
			})
		}
		wg.Wait()
		// Requeue in tape order (volume, then seq, then path): like the
		// migrate path, leftover arrival order is a crash-timing
		// artifact, and the next round's routing must not inherit it.
		sort.Slice(leftovers, func(i, j int) bool {
			a, b := leftovers[i], leftovers[j]
			if a.volume != b.volume {
				return a.volume < b.volume
			}
			if a.seq != b.seq {
				return a.seq < b.seq
			}
			return a.path < b.path
		})
		// Another node's aggregate recall may already have restored some
		// leftover members; only still-migrated work is reassigned.
		remaining = e.stillMigrated(leftovers)
	}
	e.ctrRecFiles.Add(float64(res.Files))
	e.ctrRecBytes.Add(float64(res.Bytes))
	if firstErr != nil {
		runSpan.Abort(firstErr.Error(), 0)
	} else {
		runSpan.End()
	}
	return res, firstErr
}

// recallModeName names a RecallMode for span attributes.
func recallModeName(mode RecallMode) string {
	if mode == RecallOrdered {
		return "ordered"
	}
	return "naive"
}

// recallOnNode runs one recall daemon's bin on node. If the node
// crashes, the daemon aborts — before the next drive session in ordered
// mode, at the next file in naive mode, and an in-flight session's
// restores are abandoned (tape reads are idempotent, so re-driving them
// on another node is safe) — and the rest of the bin is returned as
// leftover for reassignment.
func (e *Engine) recallOnNode(node *cluster.Node, bin []recallItem, mode RecallMode, res *RecallResult, firstErr *error, parent *telemetry.Span) (leftover []recallItem) {
	if mode == RecallOrdered {
		// Volume runs are contiguous in an ordered bin: one drive
		// session per volume (real restore sessions hold the drive for
		// the whole stream).
		for j := 0; j < len(bin); {
			if node.Down() {
				return append(leftover, bin[j:]...)
			}
			k := j
			vol := bin[j].volume
			var ids []uint64
			for k < len(bin) && bin[k].volume == vol {
				ids = append(ids, bin[k].object)
				k++
			}
			_, err := e.srv.RecallBatch(tsm.RecallBatchRequest{
				Client: node.Name, Volume: vol,
				ObjectIDs: ids, Route: e.route(node),
				Parent: parent,
			})
			if node.Down() {
				// Crashed mid-session: nothing from this run was
				// restored; the whole run is reassigned.
				return append(leftover, bin[j:]...)
			}
			if err != nil {
				if *firstErr == nil {
					*firstErr = fmt.Errorf("hsm: recalling volume %s: %w", vol, err)
				}
				j = k
				continue
			}
			e.restoreRecalled(bin[j:k], res, firstErr)
			j = k
		}
		return leftover
	}
	// Naive: stock per-file recall, drive released between files — the
	// behaviour §6.2 complains about.
	for fi, it := range bin {
		if node.Down() {
			return append(leftover, bin[fi:]...)
		}
		if _, err := e.srv.Recall(tsm.RecallRequest{
			Client:   node.Name,
			ObjectID: it.object,
			Route:    e.route(node),
			Parent:   parent,
		}); err != nil {
			if *firstErr == nil {
				*firstErr = fmt.Errorf("hsm: recalling object %d: %w", it.object, err)
			}
			continue
		}
		if node.Down() {
			return append(leftover, bin[fi:]...)
		}
		e.restoreRecalled(bin[fi:fi+1], res, firstErr)
	}
	return leftover
}

// stillMigrated filters requeued recall items down to those whose files
// are still offline (an aggregate item survives if any member is).
func (e *Engine) stillMigrated(items []recallItem) []recallItem {
	var out []recallItem
	for _, it := range items {
		if it.path == "" {
			for _, m := range e.aggMembers[it.object] {
				if st, _ := e.fs.StateID(m.id); st == pfs.Migrated {
					out = append(out, it)
					break
				}
			}
			continue
		}
		if st, _ := e.fs.StateID(it.id); st == pfs.Migrated {
			out = append(out, it)
		}
	}
	return out
}

// restoreRecalled lands a daemon's recalled run on disk for Recall: every
// file is attempted, successes are tallied in res, and the first failure
// is remembered in firstErr.
func (e *Engine) restoreRecalled(items []recallItem, res *RecallResult, firstErr *error) {
	err := e.restoreRun(items, false, func(bytes int64) {
		res.Files++
		res.Bytes += bytes
	})
	if err != nil && *firstErr == nil {
		*firstErr = err
	}
}

// restoreOp is one file of a recalled run: restore it, then, when the
// stub recorded a digest at migration, read it back and compare.
type restoreOp struct {
	path  string
	id    vfs.FileID
	bytes int64
	want  string // stub digest (hex); "" = pre-pipeline stub, no verify
}

// restoreRun lands a run of recalled items — plain files and whole
// aggregates' members — back on disk and cross-checks each against its
// stub digest: the last hop of the checksum pipeline, after TSM's own
// recall verification has vouched for what tape delivered. landed is
// called with the size of each file that is back and verified.
//
// The run's metadata is billed as one pfs batch (a restore per file plus
// a read per digest to check), decided before the first restore, so a
// whole volume costs one clock event rather than two per file.
//
// pinned selects RecallPinned's rules: aggregate members already on disk
// are left alone, and the first failure ends the run and is returned
// with the later files untouched. Otherwise every file is attempted and
// the first failure is returned at the end.
func (e *Engine) restoreRun(items []recallItem, pinned bool, landed func(bytes int64)) error {
	ops := make([]restoreOp, 0, len(items))
	billed := 0
	plan := func(path string, id vfs.FileID, bytes int64) {
		want, _ := e.fs.GetXattrID(id, sumXattr)
		ops = append(ops, restoreOp{path: path, id: id, bytes: bytes, want: want})
		billed++
		if want != "" {
			billed++
		}
	}
	for _, it := range items {
		if it.path != "" {
			plan(it.path, it.id, it.bytes)
			continue
		}
		for _, m := range e.aggMembers[it.object] {
			if pinned {
				if st, _ := e.fs.StateID(m.id); st != pfs.Migrated {
					continue
				}
			}
			plan(m.path, m.id, m.bytes)
		}
	}
	var first error
	paid := e.fs.Bill(billed)
	for _, op := range ops {
		err := restoreOne(&paid, op)
		if err == nil {
			landed(op.bytes)
			continue
		}
		if pinned {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// restoreOne restores op's file on a paid batch and, when its stub
// recorded a digest, reads the file back and compares.
func restoreOne(paid *pfs.Batch, op restoreOp) error {
	if err := paid.RestoreID(op.id, true); err != nil {
		return fmt.Errorf("hsm: restoring %s: %w", op.path, err)
	}
	if op.want == "" {
		return nil
	}
	c, err := paid.ReadContentID(op.id)
	if err != nil {
		return fmt.Errorf("hsm: verifying %s: %w", op.path, err)
	}
	// Formatted on the stack: the digest is only kept when it is wrong.
	var buf [16]byte
	if got := strconv.AppendUint(buf[:0], c.Digest(), 16); string(got) != op.want {
		return fmt.Errorf("hsm: %s restored with digest %s, want %s", op.path, string(got), op.want)
	}
	return nil
}

// routeRecalls assigns items to n bins per the routing mode.
func (e *Engine) routeRecalls(items []recallItem, mode RecallMode, n int) [][]recallItem {
	bins := make([][]recallItem, n)
	switch mode {
	case RecallOrdered:
		// Group by volume, sort each volume by tape sequence, and pin
		// each whole volume to one node (volumes round-robin across
		// nodes by aggregate size, largest first, to balance).
		byVol := make(map[string][]recallItem)
		for _, it := range items {
			byVol[it.volume] = append(byVol[it.volume], it)
		}
		type volLoad struct {
			vol   string
			bytes int64
		}
		var vols []volLoad
		for v, list := range byVol {
			sort.Slice(list, func(i, j int) bool { return list[i].seq < list[j].seq })
			byVol[v] = list
			var b int64
			for _, it := range list {
				b += it.bytes
			}
			vols = append(vols, volLoad{v, b})
		}
		sort.Slice(vols, func(i, j int) bool {
			if vols[i].bytes != vols[j].bytes {
				return vols[i].bytes > vols[j].bytes
			}
			return vols[i].vol < vols[j].vol
		})
		loads := make([]int64, n)
		for _, v := range vols {
			best := 0
			for i := 1; i < len(loads); i++ {
				if loads[i] < loads[best] {
					best = i
				}
			}
			bins[best] = append(bins[best], byVol[v.vol]...)
			loads[best] += v.bytes
		}
	default: // RecallNaive
		for i, it := range items {
			bins[i%n] = append(bins[i%n], it)
		}
	}
	return bins
}

// locate resolves the file at p, whose ID is id, to its tape location,
// preferring the shadow database's file-ID index and falling back to
// TSM's full-scan path query.
func (e *Engine) locate(p string, id vfs.FileID) (recallItem, error) {
	if e.shadow != nil {
		if rec, err := e.shadow.ByFileID(uint64(id)); err == nil {
			return recallItem{path: p, id: id, object: rec.ObjectID, volume: rec.Volume, seq: rec.Seq, bytes: rec.Bytes}, nil
		}
	}
	obj, err := e.srv.QueryByPath(p)
	if err != nil {
		return recallItem{}, fmt.Errorf("%w: %s", errNotMigrated, p)
	}
	return recallItem{path: p, id: id, object: obj.ID, volume: obj.Volume, seq: obj.Seq, bytes: obj.Bytes}, nil
}

// TapeLoc is the tape address of one migrated file, exposed for
// PFTool's tape-ordered recall planning.
type TapeLoc struct {
	Path   string
	ID     vfs.FileID
	Volume string
	Seq    int
	Bytes  int64
}

// AggregateOf reports the aggregate object that carries the file with
// ID id, if it was migrated in a bundle. It reads the engine's own index
// and charges nothing. A file is its inode, not its path: a new file at
// a bundled member's path is no member.
func (e *Engine) AggregateOf(id vfs.FileID) (objectID uint64, ok bool) {
	objectID, ok = e.aggOf[id]
	return objectID, ok
}

// Locate resolves migrated files to tape locations, in input order;
// ids[i] is the file ID of paths[i]. Unknown or unlocatable paths are
// left out of locs and returned in missing. Aggregate members resolve to
// their bundle's volume/sequence.
func (e *Engine) Locate(paths []string, ids []vfs.FileID) (locs []TapeLoc, missing []string) {
	locs = make([]TapeLoc, 0, len(paths))
	for i, p := range paths {
		if aggID, ok := e.aggOf[ids[i]]; ok {
			if obj, err := e.srv.Get(aggID); err == nil {
				locs = append(locs, TapeLoc{Path: p, ID: ids[i], Volume: obj.Volume, Seq: obj.Seq, Bytes: obj.Bytes})
				continue
			}
		}
		it, err := e.locate(p, ids[i])
		if err != nil {
			missing = append(missing, p)
			continue
		}
		locs = append(locs, TapeLoc{Path: p, ID: it.id, Volume: it.volume, Seq: it.seq, Bytes: it.bytes})
	}
	return locs, missing
}

// RecallPinned recalls the given files as the named client machine,
// batching by volume in the order given; ids[i] is the file ID of
// paths[i], as the caller's walk resolved it. This is the primitive
// under PFTool's TapeProc: one machine owns one tape end to end in a
// single drive session, so there are no LAN-free hand-off penalties and
// the tape reads front to back. The whole pinned run passes the
// scheduler as one expedited recall admission.
func (e *Engine) RecallPinned(nodeName string, paths []string, ids []vfs.FileID) error {
	var node *cluster.Node
	for _, n := range e.nodes {
		if n.Name == nodeName {
			node = n
			break
		}
	}
	if node == nil {
		return fmt.Errorf("hsm: unknown node %q", nodeName)
	}
	// Resolve still-migrated paths to recall items, deduplicating
	// aggregate bundles.
	items := make([]recallItem, 0, len(paths))
	seenAgg := make(map[uint64]bool)
	for i, p := range paths {
		st, err := e.fs.StateID(ids[i])
		if err != nil {
			return fmt.Errorf("hsm: %s: %w", p, err)
		}
		if st != pfs.Migrated {
			continue
		}
		if aggID, ok := e.aggOf[ids[i]]; ok {
			if seenAgg[aggID] {
				continue
			}
			seenAgg[aggID] = true
			obj, err := e.srv.Get(aggID)
			if err != nil {
				return err
			}
			items = append(items, recallItem{object: aggID, volume: obj.Volume, seq: obj.Seq, bytes: obj.Bytes})
			continue
		}
		it, err := e.locate(p, ids[i])
		if err != nil {
			return err
		}
		items = append(items, it)
	}
	var totalBytes int64
	for _, it := range items {
		totalBytes += it.bytes
	}
	grant := e.sch.Station(sched.StationRecall).Admit(sched.Item{
		QoS:   sched.QoS{}.Or(sched.Interactive),
		Units: totalBytes, Expedite: true,
	})
	if gerr := grant.Err(); gerr != nil {
		sp := e.tel.StartSpan("hsm.recall-pinned", "node", nodeName)
		sp.Abort(gerr.Error(), e.srv.DownCause())
		return fmt.Errorf("hsm: recall-pinned on %s: %w", nodeName, gerr)
	}
	defer grant.Done()
	// One drive session per volume run, in the caller's order (the
	// caller has already tape-ordered the paths).
	runSpan := e.tel.StartSpan("hsm.recall-pinned",
		"node", nodeName, "files", strconv.Itoa(len(items)))
	for j := 0; j < len(items); {
		k := j
		vol := items[j].volume
		for k < len(items) && items[k].volume == vol {
			k++
		}
		ids := make([]uint64, k-j)
		for x := range ids {
			ids[x] = items[j+x].object
		}
		if _, err := e.srv.RecallBatch(tsm.RecallBatchRequest{
			Client: nodeName, Volume: vol,
			ObjectIDs: ids, Route: e.route(node),
			Parent: runSpan,
		}); err != nil {
			runSpan.Abort(err.Error(), 0)
			return err
		}
		err := e.restoreRun(items[j:k], true, func(bytes int64) {
			e.ctrRecFiles.Inc()
			e.ctrRecBytes.Add(float64(bytes))
		})
		if err != nil {
			runSpan.Abort(err.Error(), 0)
			return err
		}
		j = k
	}
	runSpan.End()
	return nil
}
