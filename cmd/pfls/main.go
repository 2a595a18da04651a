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

	"repro/cmd/internal/cli"
	"repro/internal/archive"
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

	return cli.Run("pfls", flags, stderr, func(_ *simtime.Clock, sys *archive.System) (int, error) {
		res, err := sys.PflsTo("scratch", "/src", flags.Tunables(), stdout)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(stdout, res.Summary())
		return 0, nil
	})
}
