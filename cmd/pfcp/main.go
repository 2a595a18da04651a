// Command pfcp is the simulated counterpart of PFTool's parallel copy
// (§4.1.3): it stands up the paper's deployment, synthesizes a source
// tree on the scratch file system, archives it in parallel, and prints
// the Manager's performance report.
//
// With -retrieve the tree is first archived and migrated to tape, then
// copied back through the tape-ordered TapeProc path.
//
// With -interrupt D the run is killed D of virtual time in — the real
// operational case the restart journal exists for — and then resumed:
// the second run prunes every journaled file from its work list, skips
// the few that landed but were not yet journaled, and copies only the
// remainder.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/archive"
	"repro/internal/hsm"
	"repro/internal/pftool"
	"repro/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command and returns the process exit code: 0 on
// success, 1 when the simulated run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pfcp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := cli.Register(fs)
	retrieve := fs.Bool("retrieve", false, "archive + migrate to tape, then copy back from tape")
	report := fs.Bool("report", false, "print the Manager's full performance report (with WatchDog history)")
	interrupt := fs.Duration("interrupt", 0, "kill the copy after this much virtual time, then resume it from the restart journal")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	return cli.Run("pfcp", flags, stderr, func(clock *simtime.Clock, sys *archive.System) (int, error) {
		return 0, simulate(clock, sys, flags, *retrieve, *report, *interrupt, stdout)
	})
}

func simulate(clock *simtime.Clock, sys *archive.System, flags *cli.Flags, retrieve, report bool, interrupt time.Duration, out io.Writer) error {
	tun := flags.Tunables()
	tun.Verbose = false
	if interrupt > 0 {
		journal := pftool.NewJournal()
		tun.Journal = journal
		deadline := clock.Now() + interrupt
		failed := false
		// Per-file jobs for the doomed pass, so the deadline falls
		// between files instead of after one giant batch dispatch.
		itun := tun
		itun.CopyBatchFiles = 1
		itun.InjectFault = func(dst string, chunk int) bool {
			if !failed && clock.Now() >= deadline {
				failed = true
				return true
			}
			return false
		}
		if _, err := sys.Pfcp("/src", "/archive/src", itun); err != nil {
			fmt.Fprintf(out, "interrupted after %v: journal holds %d completed file(s)\n",
				interrupt, journal.Len())
		} else {
			fmt.Fprintln(out, "run finished before the interrupt; resuming is a no-op")
		}
		tun.Restart = true // repair any half-copied chunked file too
	}
	res, err := sys.Pfcp("/src", "/archive/src", tun)
	if err != nil {
		return err
	}
	if res.JournalSkipped > 0 || res.FilesSkipped > 0 {
		fmt.Fprintf(out, "resume: %d file(s) pruned by the restart journal, %d skipped as already current\n",
			res.JournalSkipped, res.FilesSkipped)
	}
	if report {
		fmt.Fprint(out, res.Report())
	} else {
		fmt.Fprintln(out, "archive:", res.Summary())
	}
	if !retrieve {
		return nil
	}
	mres, err := sys.MigrateTree("/archive/src", hsm.MigrateOptions{Balanced: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "migrate: %d files, %d bytes to tape across %d movers\n",
		mres.Files, mres.Bytes, len(mres.NodeBytes))
	if err := sys.Scratch.RemoveAll("/src"); err != nil {
		return err
	}
	rres, err := sys.PfcpRetrieve("/archive/src", "/src", flags.Tunables())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "retrieve:", rres.Summary())
	return nil
}
