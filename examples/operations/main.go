// Operations tours the operational machinery around the archive: the
// chroot jail that keeps users from thrashing tape (§4.2.3), volume
// reclamation after synchronous deletes, a drive-failure drill on the
// fault-injection registry (dead drives reaped mid-migration, audit
// clean), and a two-site TSM federation surviving a server failure
// (§6.4 future work).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/hsm"
	"repro/internal/jail"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	clock := simtime.NewClock()
	sys := archive.NewDefault(clock)

	clock.Go(func() {
		// Land and migrate a project so there is tape state to manage.
		sys.Archive.MkdirAll("/climate")
		var infos []pfs.Info
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/climate/run%03d.nc", i)
			sys.Archive.WriteFile(p, synthetic.NewUniform(uint64(i+1), 1e9))
			sys.Archive.SetXattr(p, "owner", []string{"alice", "bob"}[i%2])
			info, _ := sys.Archive.Stat(p)
			infos = append(infos, info)
		}
		if _, err := sys.HSM.Migrate(infos, hsm.MigrateOptions{Balanced: true}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("setup    : 30 GB migrated to tape for project 'climate'")

		// --- The jail (§4.2.3) ---
		can, err := sys.TrashCan()
		if err != nil {
			log.Fatal(err)
		}
		j := jail.New(sys.Archive, sys.HSM, can, jail.Policy{})
		if _, err := j.Grep("/climate", []byte("pattern"), jail.GrepNaive); err != nil {
			fmt.Println("jail     : grep denied —", err)
		}
		entries, _ := j.Ls("/climate")
		fmt.Printf("jail     : ls works (%d entries, zero tape I/O)\n", len(entries))
		if _, err := j.Read("/climate/run004.nc"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("jail     : cat run004.nc recalled it transparently in tape order")

		// --- Drive-failure drill (fault registry) ---
		// Two of the 24 LTO-4 drives die permanently mid-migration. The
		// TSM server reaps them from rotation, re-drives the interrupted
		// transactions on survivors under bounded backoff, and the
		// migration completes; the audit proves nothing was lost or
		// double-archived.
		reg := faults.New(clock)
		sys.InstallFaults(reg)
		sys.Archive.MkdirAll("/drill")
		var drill []pfs.Info
		for i := 0; i < 20; i++ {
			p := fmt.Sprintf("/drill/ckpt%02d.h5", i)
			sys.Archive.WriteFile(p, synthetic.NewUniform(uint64(100+i), 2e9))
			info, _ := sys.Archive.Stat(p)
			drill = append(drill, info)
		}
		drives := sys.Library.Drives()
		now := clock.Now()
		reg.FailAt(faults.DriveComponent(drives[0].Name), now+5*time.Second)
		reg.FailAt(faults.DriveComponent(drives[1].Name), now+10*time.Second)
		dres, err := sys.HSM.Migrate(drill, hsm.MigrateOptions{Balanced: true})
		if err != nil {
			log.Fatal(err)
		}
		audit, err := sys.Audit()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("drill    : %s and %s died mid-migrate; %d/%d files still reached tape (%d TSM retries)\n",
			drives[0].Name, drives[1].Name, dres.Files, len(drill),
			int(telemetry.Of(clock).Counter("tsm_retries_total").Value()))
		fmt.Printf("drill    : %d/%d drives left in rotation; archive audit clean: %v\n",
			len(sys.Library.UpDrives()), len(drives), audit.Clean())

		// --- Synchronous delete + reclamation ---
		for _, f := range infos[:20] {
			if _, err := j.Rm("alice", f.Path); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := sys.Deleter.Purge(can); err != nil {
			log.Fatal(err)
		}
		res, err := sys.TSM.ReclaimThreshold("fta01", 0.6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reclaim  : after deleting 20 files, reclaimed %d volume(s), freed %.0f GB of tape\n",
			res.VolumesReclaimed, float64(res.BytesFreed)/1e9)

		// --- Federation (§6.4) ---
		// Each site is a small plant of its own, named by Options.Site.
		opts := archive.DefaultOptions()
		opts.TapeDrives, opts.Cartridges, opts.Robots = 4, 32, 1
		var plants []*archive.System
		for _, name := range []string{"east", "west"} {
			opts.Site = name
			plants = append(plants, archive.New(clock, opts))
		}
		// One failure mechanism: site health lives in the same registry
		// as the drive faults, so SetDown below lands in its log.
		fed, err := federation.New(clock, reg, plants...)
		if err != nil {
			log.Fatal(err)
		}
		var fedInfos []pfs.Info
		for _, proj := range []string{"astro", "plasma", "cosmo", "fusion"} {
			site := fed.SiteFor("/" + proj)
			site.Archive.MkdirAll("/" + proj)
			p := "/" + proj + "/data.bin"
			site.Archive.WriteFile(p, synthetic.NewUniform(7, 2e9))
			info, _ := site.Archive.Stat(p)
			fedInfos = append(fedInfos, info)
		}
		if _, err := fed.Migrate(fedInfos, hsm.MigrateOptions{}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("federate : %d projects spread over sites %v\n", len(fedInfos), fed.HealthySlice())
		fed.Sites()[0].SetDown(true)
		survived := 0
		for _, f := range fedInfos {
			if _, err := fed.Stat(f.Path); err == nil {
				survived++
			}
		}
		fmt.Printf("federate : site %s failed; %d/%d projects still fully served (the paper's single TSM server would serve 0)\n",
			fed.Sites()[0].Name, survived, len(fedInfos))
		fmt.Printf("faults   : the registry logged %d fault event(s) across drives and sites\n", len(reg.Log()))
	})

	if _, err := clock.Run(); err != nil {
		log.Fatal(err)
	}
}
