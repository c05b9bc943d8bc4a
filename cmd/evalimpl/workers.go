package main

// Coordinator mode: -workers N turns one evalimpl invocation into a small
// fleet. The coordinator re-execs its own binary once per partition with
// the -partition/-peers flags, waits for every worker, merges the
// per-worker journals into the -store path, and then falls through to the
// normal run — which finds every cell already present and assembles the
// grid with "merged" provenance. Worker journals live next to the store as
// <store>.workerN and are removed after a successful merge.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"

	"lossyts/internal/cli"
	"lossyts/internal/core"
)

// workerMain is the worker mode: run one partition against this
// worker's own journal and print the summary as JSON on stdout.
func workerMain(partition, peers string, grid *cli.Grid, common *cli.Common, stdout, stderr io.Writer) int {
	index, workers, err := cli.ParsePartition(partition)
	if err != nil {
		fmt.Fprintln(stderr, "evalimpl:", err)
		return 2
	}
	if common.Store == "" {
		fmt.Fprintln(stderr, "evalimpl: -partition requires -store (the worker's journal)")
		return 2
	}
	summary, err := core.RunGridPartition(grid.Options(common), workers, index, cli.SplitList(peers))
	if err != nil {
		fmt.Fprintln(stderr, "evalimpl:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(summary); err != nil {
		fmt.Fprintln(stderr, "evalimpl:", err)
		return 1
	}
	return 0
}

// workerArgs renders the argv a spawned worker needs to compute the exact
// same grid as the coordinator: the grid flags, the compute flags, and its
// partition assignment.
func workerArgs(grid *cli.Grid, common *cli.Common, journal string, i, n int, peers []string) []string {
	args := grid.Args()
	if common.Parallelism != 0 {
		args = append(args, "-parallelism", strconv.Itoa(common.Parallelism))
	}
	args = append(args,
		"-store", journal,
		"-partition", fmt.Sprintf("%d/%d", i+1, n),
		"-peers", strings.Join(peers, ","),
	)
	return args
}

// coordinate spawns n workers, waits for all of them, reports their
// summaries, and merges their journals into store. On success the worker
// journals are removed; on failure they are left for inspection.
func coordinate(n int, store string, grid *cli.Grid, common *cli.Common, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("evalimpl: locating own binary: %w", err)
	}
	journals := make([]string, n)
	for i := range journals {
		journals[i] = fmt.Sprintf("%s.worker%d", store, i+1)
	}

	var wg sync.WaitGroup
	summaries := make([]core.WorkerSummary, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, p := range journals {
			if j != i {
				peers = append(peers, p)
			}
		}
		wg.Add(1)
		go func(i int, peers []string) {
			defer wg.Done()
			cmd := exec.Command(exe, workerArgs(grid, common, journals[i], i, n, peers)...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				errs[i] = fmt.Errorf("worker %d/%d: %w", i+1, n, err)
				return
			}
			if err := json.Unmarshal(out.Bytes(), &summaries[i]); err != nil {
				errs[i] = fmt.Errorf("worker %d/%d: bad summary: %w", i+1, n, err)
			}
		}(i, peers)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("evalimpl: %w", err)
		}
	}
	for _, s := range summaries {
		fmt.Fprintf(stderr, "worker %d/%d: %d owned, %d stolen, %d computed, %d loaded (%d ms)\n",
			s.Partition, s.Workers, s.OwnedCells, s.StolenCells, s.ComputedCells, s.LoadedCells, s.WallMS)
	}
	stats, err := core.MergeWorkerStores(store, journals)
	if err != nil {
		return fmt.Errorf("evalimpl: merging worker journals: %w", err)
	}
	fmt.Fprintf(stderr, "merged %d worker journals into %s (%d records)\n", stats.Sources, store, stats.Records)
	for _, j := range journals {
		os.Remove(j)
	}
	return nil
}
