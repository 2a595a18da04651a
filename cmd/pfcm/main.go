// Command pfcm is the simulated counterpart of PFTool's parallel
// compare (§4.1.3): after archiving the synthetic tree it byte-compares
// source and destination in parallel — the integrity check users ran
// after every pfcp. With -corrupt N, N destination files are damaged
// first to demonstrate detection. With -recheck the compare runs a
// second time sharing the first pass's restart journal: files that
// compared clean are pruned from the rerun, but mismatched and missing
// files are re-flagged, the way an interrupted multi-day pfcm was
// resumed in production. Every compare failure is printed with the
// offending path and the first divergent byte offset, and any failing
// pass makes the command exit nonzero.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/archive"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/synthetic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pfcm: ")
	flags := cli.Register(flag.CommandLine)
	corrupt := flag.Int("corrupt", 0, "corrupt this many destination files before comparing")
	recheck := flag.Bool("recheck", false, "compare twice with a shared restart journal; the rerun skips files already verified")
	flag.Parse()
	os.Exit(run(flags, *corrupt, *recheck, os.Stdout, os.Stderr))
}

// run executes the whole scenario and returns the process exit code:
// 0 when every compare pass was clean, 3 when any pass found
// mismatched or missing files, 1 on a simulation error.
func run(flags *cli.Flags, corrupt int, recheck bool, out, errw io.Writer) int {
	return cli.Run("pfcm", flags, errw, func(_ *simtime.Clock, sys *archive.System) (int, error) {
		return simulate(sys, flags, corrupt, recheck, out)
	})
}

func simulate(sys *archive.System, flags *cli.Flags, corrupt int, recheck bool, out io.Writer) (int, error) {
	tun := flags.Tunables()
	cres, err := sys.Pfcp("/src", "/archive/src", tun)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(out, "archive:", cres.Summary())

	if corrupt > 0 {
		damaged := 0
		err := sys.Archive.Walk("/archive/src", func(i pfs.Info) error {
			if damaged >= corrupt || i.IsDir() || i.Size == 0 {
				return nil
			}
			if err := sys.Archive.WriteAt(i.Path, 0, synthetic.NewUniform(0xBAD, 1)); err != nil {
				return err
			}
			damaged++
			return nil
		})
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "corrupted %d destination file(s)\n", damaged)
	}

	if recheck {
		tun.Journal = pftool.NewJournal()
	}
	vres, err := sys.Pfcm("/src", "/archive/src", tun)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(out, "compare:", vres.Summary())
	bad := report(out, "compare", vres)
	if recheck {
		rres, err := sys.Pfcm("/src", "/archive/src", tun)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "recheck: %d file(s) pruned by the restart journal, %d recompared\n",
			rres.JournalSkipped, rres.Matched+rres.Mismatched)
		bad = report(out, "recheck", rres) || bad
	}
	if bad {
		return 3, nil
	}
	return 0, nil
}

// report prints one line per compare failure — the offending
// destination path and the first divergent byte — and says whether the
// pass failed.
func report(w io.Writer, pass string, res pftool.Result) bool {
	for _, m := range res.Mismatches {
		fmt.Fprintf(w, "%s: MISMATCH %v\n", pass, m)
	}
	return res.Mismatched > 0 || res.Missing > 0
}
