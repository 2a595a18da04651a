// Hsmpolicy walks the ILM and delete machinery of §4.2: placement
// policies route new files to pools, a threshold policy picks migration
// victims when the fast pool fills, the balanced parallel migrator
// sends them to tape, a user deletes through the trashcan, and the
// synchronous deleter removes file-system and tape copies together —
// with a reconcile pass at the end proving nothing was orphaned.
package main

import (
	"fmt"
	"log"

	"repro/internal/archive"
	"repro/internal/hsm"
	"repro/internal/ilm"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

func main() {
	log.SetFlags(0)
	clock := simtime.NewClock()

	// A small archive so the threshold trips visibly: 60 GB fast pool.
	opts := archive.DefaultOptions()
	opts.Archive.Pools = []pfs.PoolSpec{
		{Name: "fast", Capacity: 60e9, Rate: 3e9},
		{Name: "slow", Capacity: 100e12, Rate: 0.8e9},
	}
	sys := archive.New(clock, opts)

	clock.Go(func() {
		placement := sys.Placement()

		// Land 55 GB of data, placing each file by policy.
		if err := sys.Archive.MkdirAll("/data"); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 55; i++ {
			p := fmt.Sprintf("/data/big%02d.dat", i)
			pool := placement.Choose(p, 1e9, clock.Now())
			if err := sys.Archive.WriteFileIn(p, synthetic.NewUniform(uint64(i+1), 1e9), pool); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			p := fmt.Sprintf("/data/note%03d.txt", i)
			pool := placement.Choose(p, 2048, clock.Now())
			if err := sys.Archive.WriteFileIn(p, synthetic.NewUniform(uint64(1000+i), 2048), pool); err != nil {
				log.Fatal(err)
			}
		}
		fast, _ := sys.Archive.Pool("fast")
		slow, _ := sys.Archive.Pool("slow")
		fmt.Printf("placement: fast pool %.1f GB (big files), slow pool %d KB (small files)\n",
			float64(fast.Used())/1e9, slow.Used()/1024)

		// The fast pool is past 90%: the threshold policy picks the
		// oldest files until it would be back under 50%.
		tp := ilm.ThresholdPolicy{Pool: "fast", High: 0.9, Low: 0.5}
		victims, err := tp.Candidates(sys.Archive)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("threshold: pool at %.0f%%, policy selected %d victims\n",
			100*float64(fast.Used())/float64(fast.Spec.Capacity), len(victims))

		mres, err := sys.HSM.Migrate(victims, hsm.MigrateOptions{Balanced: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migrate  : %d files to tape, pool now at %.0f%%\n",
			mres.Files, 100*float64(fast.Used())/float64(fast.Spec.Capacity))

		// A user deletes a migrated file: it goes to the trashcan (a
		// rename), then the nightly purge issues the synchronous
		// delete — file system and TSM object go together.
		can, err := sys.TrashCan()
		if err != nil {
			log.Fatal(err)
		}
		victim := victims[0].Path
		if _, err := can.Delete("alice", victim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trash    : %s -> trashcan (undelete still possible)\n", victim)

		before := sys.TSM.NumObjects()
		pres, err := sys.Deleter.Purge(can)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("purge    : removed %d file(s), deleted %d tape object(s) synchronously (TSM: %d -> %d objects)\n",
			pres.Removed, pres.TapeDeletes, before, sys.TSM.NumObjects())

		// Reconciliation finds nothing: no orphans were ever created.
		rres, err := sys.Recon.Reconcile()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reconcile: scanned %d files / %d objects, %d orphans (synchronous delete left none)\n",
			rres.FSFiles, rres.TSMObjects, rres.OrphansDeleted)
	})

	if _, err := clock.Run(); err != nil {
		log.Fatal(err)
	}
}
