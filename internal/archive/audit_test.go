package archive

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/synthetic"
	"repro/internal/tsm"
	"repro/internal/vfs"
)

func TestAuditCleanAfterNormalLifecycle(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 8, 1e9)
		if _, err := s.Pfcp("/proj", "/arc/proj", testTunables()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{Balanced: true}); err != nil {
			t.Fatal(err)
		}
		// Delete two files the right way: trashcan + synchronous purge.
		can, _ := s.TrashCan()
		can.Delete("alice", "/arc/proj/f0000")
		can.Delete("alice", "/arc/proj/f0001")
		if _, err := s.Deleter.Purge(can); err != nil {
			t.Fatal(err)
		}
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Errorf("audit found problems after a clean lifecycle: %s", res)
		}
		if res.StubsChecked != 6 {
			t.Errorf("StubsChecked = %d, want 6", res.StubsChecked)
		}
	})
}

func TestAuditDetectsOrphanFromRawUnlink(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 2, 1e9)
		s.Pfcp("/proj", "/arc/proj", testTunables())
		s.MigrateTree("/arc/proj", hsm.MigrateOptions{})
		// A user bypasses the trashcan: raw unlink orphans the object.
		if err := s.Archive.Remove("/arc/proj/f0000"); err != nil {
			t.Fatal(err)
		}
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if res.Orphans != 1 {
			t.Errorf("Orphans = %d, want 1", res.Orphans)
		}
		if res.Clean() {
			t.Error("audit reported clean despite an orphan")
		}
		if !strings.Contains(res.String(), "INCONSISTENT") {
			t.Errorf("String = %q", res.String())
		}
	})
}

func TestAuditDetectsLostObject(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 2, 1e9)
		s.Pfcp("/proj", "/arc/proj", testTunables())
		s.MigrateTree("/arc/proj", hsm.MigrateOptions{})
		// Simulate an operator deleting the TSM object out from under a
		// stub (the worst case: the data is gone).
		fid, _, err := s.Archive.Lookup("/arc/proj/f0001")
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Shadow.ByFileID(uint64(fid))
		if err != nil {
			t.Fatal(err)
		}
		s.TSM.Delete(rec.ObjectID)
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		// TSM's delete also dropped the shadow row: the stub has no row
		// and no live object carries its file, so the data is lost, not
		// merely unindexed.
		if res.MissingObject != 1 || res.MissingShadow != 0 || res.StaleShadow != 0 || res.Orphans != 0 {
			t.Errorf("res = %s, want exactly one lost object", res)
		}
	})
}

func TestAuditDetectsMissingShadowRow(t *testing.T) {
	runSys(t, func(s *System) {
		seedScratch(t, s, "/proj", 2, 1e9)
		s.Pfcp("/proj", "/arc/proj", testTunables())
		s.MigrateTree("/arc/proj", hsm.MigrateOptions{})
		fid, _, err := s.Archive.Lookup("/arc/proj/f0000")
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Shadow.ByFileID(uint64(fid))
		if err != nil {
			t.Fatal(err)
		}
		// The shadow drifts (a sync job missed this row).
		s.Shadow.Apply(tsm.Object{ID: rec.ObjectID, Deleted: true})
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if res.MissingShadow != 1 {
			t.Errorf("MissingShadow = %d, want 1", res.MissingShadow)
		}
		// The fix: re-sync the shadow from TSM, audit comes back clean.
		for _, o := range s.TSM.Export() {
			s.Shadow.Apply(o)
		}
		res, _ = s.Audit()
		if !res.Clean() {
			t.Errorf("audit still dirty after shadow re-sync: %s", res)
		}
	})
}

// A shadow row that still names a survivor's pre-reclaim volume and
// sequence is stale: a tape-ordered recall planned from it would ask
// for the object on a volume it has left.
func TestAuditDetectsStaleLocationAfterReclaim(t *testing.T) {
	opts := DefaultOptions()
	opts.TapeDrives = 4
	runSysOpts(t, opts, func(s *System) {
		_, before := reclaimAfterPurge(t, s)
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Errorf("audit after reclaim: %s, want clean", res)
		}
		// Put back the rows as a mirror that missed the moves would
		// have left them.
		moved := 0
		for _, rec := range before {
			if obj, _ := s.TSM.Get(rec.ObjectID); obj.Volume != rec.Volume || obj.Seq != rec.Seq {
				moved++
			}
			s.Shadow.Upsert(rec)
		}
		res, err = s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if res.StaleShadow != moved || res.MissingShadow != 0 || res.MissingObject != 0 {
			t.Errorf("audit with pre-reclaim rows: %s, want %d stale rows", res, moved)
		}
	})
}

// Aggregate members are carried by their bundle, whose object and
// shadow row hold no file ID: a bundled plant audits clean, and losing
// a bundle's object loses exactly its members.
func TestAuditChecksAggregateMembersAgainstTheirBundle(t *testing.T) {
	opts := DefaultOptions()
	opts.HSM = hsm.Config{AggregateThreshold: 2e9, AggregateTarget: 8e9}
	runSysOpts(t, opts, func(s *System) {
		seedScratch(t, s, "/proj", 12, 5e8)
		if _, err := s.Pfcp("/proj", "/arc/proj", testTunables()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{}); err != nil {
			t.Fatal(err)
		}
		// The largest bundle and its member count.
		members := make(map[uint64]int)
		var largest uint64
		for i := 0; i < 12; i++ {
			fid, _, err := s.Archive.Lookup(fmt.Sprintf("/arc/proj/f%04d", i))
			if err != nil {
				t.Fatal(err)
			}
			id, ok := s.HSM.AggregateOf(fid)
			if !ok {
				t.Fatalf("f%04d is no aggregate member", i)
			}
			if members[id]++; members[id] > members[largest] {
				largest = id
			}
		}
		if members[largest] < 2 {
			t.Fatalf("bundles %v: none holds two members", members)
		}
		audit := func() AuditResult {
			t.Helper()
			res, err := s.Audit()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if got := audit(); !got.Clean() || got.StubsChecked != 12 {
			t.Errorf("audit of an aggregated plant: %s, want clean with 12 stubs", got)
		}
		if err := s.TSM.Delete(largest); err != nil {
			t.Fatal(err)
		}
		if got := audit(); got.MissingObject != members[largest] || got.MissingShadow != 0 || got.StaleShadow != 0 || got.Orphans != 0 {
			t.Errorf("audit after deleting one bundle: %s, want its %d members lost and nothing else", got, members[largest])
		}
		for _, obj := range s.TSM.LiveObjects() {
			if err := s.TSM.Delete(obj.ID); err != nil {
				t.Fatal(err)
			}
		}
		if got := audit(); got.MissingObject != 12 || got.MissingShadow != 0 || got.StaleShadow != 0 || got.Orphans != 0 {
			t.Errorf("audit after deleting every bundle: %s, want 12 lost and nothing else", got)
		}
	})
}

// A live bundle whose members are all gone is an orphan too: raw
// unlinks of six bundled files leave six bundles on tape that no stub
// names.
func TestAuditCountsBundlesWithoutMembersAsOrphans(t *testing.T) {
	opts := DefaultOptions()
	opts.HSM = hsm.Config{AggregateThreshold: 2e9}
	runSysOpts(t, opts, func(s *System) {
		seedScratch(t, s, "/proj", 6, 1e9)
		if _, err := s.Pfcp("/proj", "/arc/proj", testTunables()); err != nil {
			t.Fatal(err)
		}
		if res, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{}); err != nil || res.Aggregates == 0 {
			t.Fatalf("migrate: %+v, %v; want bundles", res, err)
		}
		if res, err := s.Audit(); err != nil || !res.Clean() {
			t.Fatalf("audit before the unlinks: %s, %v; want clean", res, err)
		}
		for i := 0; i < 6; i++ {
			if err := s.Archive.Remove(fmt.Sprintf("/arc/proj/f%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Audit()
		if err != nil {
			t.Fatal(err)
		}
		live := len(s.TSM.LiveObjects())
		if res.Orphans != 6 || live != 6 || res.StubsChecked != 0 {
			t.Errorf("audit after unlinking every member: %s with %d live objects, want 6 orphaned bundles", res, live)
		}
	})
}

// A bundle member is its inode, not its path. f0000 goes to tape in a
// one-member bundle and is purged through the trashcan; a new 3 GB file
// at the same path goes to tape on its own. Locating and recalling the
// new file must find its own object, not the bundle still on tape.
func TestRecreatedMemberPathIsNotTheOldBundle(t *testing.T) {
	opts := DefaultOptions()
	opts.HSM = hsm.Config{AggregateThreshold: 2e9, AggregateTarget: 8e9}
	runSysOpts(t, opts, func(s *System) {
		const p = "/arc/proj/f0000"
		seedScratch(t, s, "/proj", 1, 1e9)
		if _, err := s.Pfcp("/proj", "/arc/proj", testTunables()); err != nil {
			t.Fatal(err)
		}
		if res, err := s.MigrateTree("/arc/proj", hsm.MigrateOptions{}); err != nil || res.Aggregates != 1 {
			t.Fatalf("migrate: %+v, %v; want one bundle", res, err)
		}
		can, _ := s.TrashCan()
		if _, err := can.Delete("alice", p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Deleter.Purge(can); err != nil {
			t.Fatal(err)
		}
		if err := s.Archive.WriteFile(p, synthetic.NewUniform(99, 3e9)); err != nil {
			t.Fatal(err)
		}
		info, err := s.Archive.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.HSM.Migrate([]pfs.Info{info}, hsm.MigrateOptions{}); err != nil || res.Files != 1 || res.Aggregates != 0 {
			t.Fatalf("migrating the new file: %+v, %v; want it stored on its own", res, err)
		}
		if _, ok := s.HSM.AggregateOf(info.ID); ok {
			t.Error("the new file is indexed as a bundle member")
		}
		own, err := s.TSM.QueryByPath(p)
		if err != nil {
			t.Fatal(err)
		}
		locs, missing := s.HSM.Locate([]string{p}, []vfs.FileID{info.ID})
		if len(missing) != 0 || len(locs) != 1 {
			t.Fatalf("Locate: %v, missing %v", locs, missing)
		}
		if l := locs[0]; l.Volume != own.Volume || l.Seq != own.Seq || l.Bytes != 3e9 {
			t.Errorf("Locate = %s/%d with %d bytes, want object %d at %s/%d with 3 GB", l.Volume, l.Seq, l.Bytes, own.ID, own.Volume, own.Seq)
		}
		read := s.TSM.Telemetry().Counter("tsm_bytes_read_total")
		before := read.Value()
		if err := s.HSM.RecallPinned(s.Cluster.Nodes()[0].Name, []string{p}, []vfs.FileID{info.ID}, sched.QoS{}); err != nil {
			t.Fatal(err)
		}
		if got := read.Value() - before; got != 3e9 {
			t.Errorf("RecallPinned read %.0f bytes from tape, want object %d's 3e9", got, own.ID)
		}
		if _, st, _ := s.Archive.Lookup(p); st != pfs.Premigrated {
			t.Errorf("after recall the new file is %v, want premigrated", st)
		}
	})
}
