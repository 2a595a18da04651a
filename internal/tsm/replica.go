// Replica targets: duplicates of objects whose primaries live in a
// DIFFERENT archive site, landed on this server's copy-pool volumes by
// the federation's async WAN replication. The replica catalog is keyed
// by (home site, object ID) so two sites' object-ID sequences never
// collide, and a replica store is idempotent on that key — catch-up
// after a partition can re-offer everything in its backlog without
// ever writing a duplicate.

package tsm

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

// Replica-path errors.
var (
	// ErrServerDown means the server is in an outage. Unlike primary
	// transactions — which block and re-poll until repair — replication
	// and DR paths need to fail fast so work parks in a backlog instead
	// of hanging an actor on a dead site.
	ErrServerDown = errors.New("tsm: server down")
	// errNoReplica means this server holds no replica for the requested
	// (home site, object) pair.
	errNoReplica = errors.New("tsm: no replica")
)

// replicaKey identifies a replica: object IDs are per-site sequences,
// so the home site name is part of the key.
type replicaKey struct {
	Home string
	ID   uint64
}

// Replica records one cross-site duplicate held by this server.
type Replica struct {
	Home   string // home site whose catalog owns the primary
	ID     uint64 // object ID in the home site's catalog
	Path   string
	Bytes  int64
	Sum    uint64 // catalog digest carried over from the primary
	Volume string // copy-pool volume holding the duplicate
	Seq    int
}

// StoreReplica writes one remote object's bytes to this server's copy
// pool and records it in the replica catalog. The WAN transfer is the
// caller's concern (the replicator charges it against the WAN route);
// this charges the local tape write. Storing a (site, ID) pair already
// held is a no-op — the idempotency that makes catch-up retries and
// re-drained backlogs exactly-once. Fails fast with ErrServerDown
// during an outage and tape.ErrNoScratch when the copy pool is full.
func (s *Server) StoreReplica(client, homeSite string, obj Object, parent *telemetry.Span) error {
	if s.down {
		return ErrServerDown
	}
	key := replicaKey{Home: homeSite, ID: obj.ID}
	if _, ok := s.replicas[key]; ok {
		return nil
	}
	s.reapDownDrives()
	s.txn()
	sp := telemetry.ChildOf(s.tel, parent, "tsm.store-replica",
		"home", homeSite, "path", obj.Path)
	var loc copyLoc
	err := s.cfg.Retry.Do(s.clock, func(attempt int) error {
		s.failover(attempt)
		var err error
		loc, err = s.appendCopy(client, obj.ID, obj.Bytes, obj.Sum, sp)
		return err
	}, retryable)
	if err != nil {
		sp.Abort(err.Error(), 0)
		return err
	}
	s.txn() // commit the catalog entry
	s.replicas[key] = &Replica{
		Home:   homeSite,
		ID:     obj.ID,
		Path:   obj.Path,
		Bytes:  obj.Bytes,
		Sum:    obj.Sum,
		Volume: loc.Volume,
		Seq:    loc.Seq,
	}
	s.ctrReplicas.Inc()
	s.ctrReplicaBytes.Add(float64(obj.Bytes))
	sp.SetAttr("volume", loc.Volume)
	sp.End()
	return nil
}

// ReadReplica streams a replica's bytes back toward a client — the DR
// failover recall path when the home site is dead. route is the fabric
// path the data crosses (typically a WAN route resolved around the
// failure); the tape read and the transfer overlap exactly as in a
// primary recall. The delivered digest is verified against the replica
// catalog before success. Fails fast with ErrServerDown during an
// outage.
func (s *Server) ReadReplica(client, homeSite string, id uint64, route fabric.Path, parent *telemetry.Span) (Replica, error) {
	if s.down {
		return Replica{}, ErrServerDown
	}
	rep, ok := s.replicas[replicaKey{Home: homeSite, ID: id}]
	if !ok {
		return Replica{}, fmt.Errorf("%w: site %s object %d", errNoReplica, homeSite, id)
	}
	s.reapDownDrives()
	s.txn()
	sp := telemetry.ChildOf(s.tel, parent, "tsm.recall-replica",
		"home", homeSite, "volume", rep.Volume)
	vol, err := s.lib.Cartridge(rep.Volume)
	if err != nil {
		sp.Abort(err.Error(), 0)
		return Replica{}, err
	}
	var rd tapeIO
	var tainted bool
	err = s.cfg.Retry.Do(s.clock, func(attempt int) error {
		s.failover(attempt)
		d, err := s.volumeSession(vol, client, sp)
		if err != nil {
			return err
		}
		var readErr error
		rd, _, tainted, readErr = s.moveData(route, nil, tapeIO{drive: d, bytes: rep.Bytes, seq: rep.Seq})
		s.releaseDrive(d)
		return readErr
	}, retryable)
	if err != nil {
		sp.Abort(err.Error(), 0)
		return Replica{}, err
	}
	delivered := rd.sum
	if tainted && delivered != 0 {
		delivered = synthetic.CorruptDigest(delivered)
	}
	if rep.Sum != 0 && delivered != rep.Sum {
		err := fmt.Errorf("%w: site %s object %d (replica on %s corrupt)",
			errNoReplica, homeSite, id, rep.Volume)
		sp.Abort(err.Error(), 0)
		return Replica{}, err
	}
	sp.End()
	s.ctrReplicaRecalls.Inc()
	s.ctrBytesRead.Add(float64(rep.Bytes))
	return *rep, nil
}

// HasReplica reports whether this server holds a replica for the
// (home site, object) pair.
func (s *Server) HasReplica(homeSite string, id uint64) bool {
	_, ok := s.replicas[replicaKey{Home: homeSite, ID: id}]
	return ok
}

// NumReplicas reports how many replicas this server holds.
func (s *Server) NumReplicas() int { return len(s.replicas) }
