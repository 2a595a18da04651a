// Command pfls is the simulated counterpart of PFTool's parallel list
// (§4.1.3): it stands up the deployment, synthesizes a tree on scratch,
// walks it with the parallel tree walker, and prints the listing
// summary (and, with -v, one line per entry through the OutPutProc).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command and returns the process exit code: 0 on
// success, 1 when the simulated run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pfls", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	clock := simtime.NewClock()
	var err error
	clock.Go(func() {
		err = list(clock, flags, stdout)
	})
	if _, rerr := clock.Run(); rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "pfls:", err)
		return 1
	}
	return 0
}

func list(clock *simtime.Clock, flags *cli.Flags, out io.Writer) error {
	sys, err := cli.Deploy(clock, flags)
	if err != nil {
		return err
	}
	res, err := sys.PflsTo("scratch", "/src", flags.Tunables(), out)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Summary())
	return nil
}
