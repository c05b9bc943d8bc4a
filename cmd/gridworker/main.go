// Command gridworker runs one partition of the evaluation grid against its
// own result journal and exits with a machine-readable provenance summary
// (JSON on stdout). N workers, one per partition, turn a grid run into an
// elastically scalable job:
//
//	gridworker -partition 1/3 -store w1.cells &
//	gridworker -partition 2/3 -store w2.cells &
//	gridworker -partition 3/3 -store w3.cells &
//	wait
//	gridstore merge merged.cells w1.cells w2.cells w3.cells
//
// The merged store is byte-for-byte interchangeable with a one-process
// run's checkpoint store: load it with evalimpl -store merged.cells.
//
// With -peers, a worker that finishes its own slice scans the listed peer
// journals and computes whatever nobody has claimed or checkpointed, so
// one dead worker delays the grid by a steal pass instead of forever.
// Workers share nothing but the filesystem; they can run as local
// processes or on separate machines over a shared mount.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lossyts/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and argv, so tests can drive it.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("gridworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		partition = fs.String("partition", "1/1", "partition to run, 1-based: i/n (e.g. 2/3 = second of three workers)")
		peers     = fs.String("peers", "", "comma-separated peer journals to scan for unclaimed work after the owned slice drains")
		grid      = cli.BindGrid(fs)
		common    = cli.Bind(fs)
	)
	common.BindStore(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	index, workers, err := cli.ParsePartition(*partition)
	if err != nil {
		fmt.Fprintln(stderr, "gridworker:", err)
		return 2
	}
	if common.Store == "" {
		fmt.Fprintln(stderr, "gridworker: -store is required (the worker's own journal)")
		return 2
	}
	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(stderr, "gridworker:", err)
		return 1
	}
	summary, err := runPartition(grid.Options(common), workers, index, cli.SplitList(*peers))
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(stderr, "gridworker:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(summary); err != nil {
		fmt.Fprintln(stderr, "gridworker:", err)
		return 1
	}
	return 0
}
