// Command evalimpl regenerates the paper's tables and figures.
//
// Usage:
//
//	evalimpl -experiment table2            # one artefact
//	evalimpl -experiment all -scale 0.05   # everything, 5% dataset length
//	evalimpl -experiment table5 -full      # paper-scale run (very slow)
//	evalimpl -store grid.cells -workers 4  # grid computed by 4 worker processes
//
// Artefacts: table1..table7, fig1..fig7, all.
//
// With -workers N (requires -store), the grid computation is split across N
// locally spawned worker processes, each journaling its partition to its own
// file; the coordinator merges the journals into -store and the run proceeds
// as if one process had computed everything — the results are byte-identical.
//
// With -partition i/n (requires -store), evalimpl runs as one grid worker:
// it computes only the i-th of n deterministic slices of the grid into its
// own journal, prints a JSON summary (cells owned, stolen, computed and
// loaded, wall clock) on stdout and exits. Workers on other machines over a
// shared mount form the same fleet as -workers:
//
//	evalimpl -partition 1/3 -store w1.cells &
//	evalimpl -partition 2/3 -store w2.cells &
//	evalimpl -partition 3/3 -store w3.cells &
//	wait
//	gridstore merge merged.cells w1.cells w2.cells w3.cells
//
// With -peers, a worker that finishes its own slice scans the listed peer
// journals and computes whatever nobody has claimed or checkpointed, so one
// dead worker delays the grid by a steal pass instead of forever.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lossyts/internal/cli"
	"lossyts/internal/core"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artefact to regenerate: table1..table7, fig1..fig7, or all")
		maxTFE     = flag.Float64("tfe", 0.1, "TFE tolerance for -experiment recommend")
		saveGrid   = flag.String("savegrid", "", "after the run, save the evaluation grid to this file (cell store)")
		loadGrid   = flag.String("loadgrid", "", "load a previously saved evaluation grid instead of recomputing")
		workers    = flag.Int("workers", 0, "split the grid across N locally spawned worker processes (requires -store)")
		partition  = flag.String("partition", "", "run as one grid worker on partition i/n (1-based; requires -store) and print its JSON summary")
		peers      = flag.String("peers", "", "with -partition: comma-separated peer journals to scan for unclaimed work after the owned slice drains")
		grid       = cli.BindGrid(flag.CommandLine)
		common     = cli.Bind(flag.CommandLine)
	)
	common.BindStore(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalimpl:", err)
		os.Exit(1)
	}
	// fail flushes profiles (os.Exit skips defers) before exiting non-zero.
	fail := func(args ...any) {
		fmt.Fprintln(os.Stderr, args...)
		stopProfiles()
		os.Exit(1)
	}

	// Worker mode: run by hand on each machine, or by the -workers
	// coordinator, which re-execs this binary once per partition.
	if *partition != "" {
		code := workerMain(*partition, *peers, grid, common, os.Stdout, os.Stderr)
		stopProfiles()
		os.Exit(code)
	}

	opts := grid.Options(common)

	if *workers > 1 {
		if common.Store == "" {
			fail("evalimpl: -workers requires -store (the merged journal path)")
		}
		if err := coordinate(*workers, common.Store, grid, common, os.Stderr); err != nil {
			fail(err)
		}
		// The store now holds every cell plus the worker-count stamp; the
		// normal run below loads it and reports "merged" provenance.
	}

	if *loadGrid != "" {
		g, err := core.LoadGrid(*loadGrid)
		if err != nil {
			fail("evalimpl:", err)
		}
		opts = g.Opts // the loaded grid's options drive the experiments
	}
	if *experiment == "recommend" {
		if err := recommend(opts, *maxTFE); err != nil {
			fail("evalimpl:", err)
		}
	} else {
		if err := run(*experiment, opts); err != nil {
			fail("evalimpl:", err)
		}
		if *saveGrid != "" {
			g, err := core.RunGrid(opts) // memoised: no recomputation
			if err == nil {
				err = core.SaveGrid(g, *saveGrid)
			}
			if err != nil {
				fail("evalimpl: saving grid:", err)
			}
			fmt.Fprintf(os.Stderr, "grid saved to %s\n", *saveGrid)
		}
	}
	// Say where the grid's cells came from — computed, loaded, or a
	// resumed mix — so nobody misreads a loaded grid's zero timings as a
	// measurement. RunGrid is memoised, so this recomputes nothing; it
	// only reports when a grid actually exists for these options.
	if g, err := core.RunGridCached(opts); err == nil {
		fmt.Fprintln(os.Stderr, g.Provenance.String())
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "evalimpl:", err)
		os.Exit(1)
	}
}

// experimentOrder lists all artefacts for -experiment all.
var experimentOrder = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
}

// recommend prints the max-CR operating point per dataset whose mean TFE
// stays within the tolerance.
func recommend(opts core.Options, maxTFE float64) error {
	g, err := core.RunGrid(opts)
	if err != nil {
		return err
	}
	t := &core.Table{
		Title:  fmt.Sprintf("Recommended operating points (mean TFE <= %g)", maxTFE),
		Header: []string{"Dataset", "Method", "EB", "CR", "TE(NRMSE)", "TFE"},
	}
	for _, name := range g.Opts.Datasets {
		appendRecommendation(t, g, name, maxTFE)
	}
	if len(g.Opts.Datasets) == 0 {
		for _, name := range []string{"ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind"} {
			appendRecommendation(t, g, name, maxTFE)
		}
	}
	fmt.Println(t.String())
	return nil
}

func appendRecommendation(t *core.Table, g *core.GridResult, name string, maxTFE float64) {
	rec, err := core.Recommend(g, name, maxTFE, nil)
	if err != nil {
		t.AddRow(name, "-", "-", "-", "-", "-")
		return
	}
	t.AddRow(name, string(rec.Method), rec.Epsilon, rec.CR, rec.TE, rec.TFE)
}

func run(experiment string, opts core.Options) error {
	list := []string{strings.ToLower(experiment)}
	if experiment == "all" {
		list = experimentOrder
	}
	for _, e := range list {
		t, err := generate(e, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		fmt.Println(t.String())
	}
	return nil
}

func generate(e string, opts core.Options) (*core.Table, error) {
	// table1, fig1 and fig7 do not need the grid; everything else shares it.
	switch e {
	case "table1":
		return core.Table1(opts)
	case "fig1":
		return core.Figure1(opts, 96)
	case "fig7":
		return core.Figure7(opts)
	}
	g, err := core.RunGrid(opts)
	if err != nil {
		return nil, err
	}
	switch e {
	case "table2":
		return core.Table2(g)
	case "table3":
		return core.Table3(g)
	case "table4":
		return core.Table4(g, 10)
	case "table5":
		return core.Table5(g)
	case "table6":
		return core.Table6(g)
	case "table7":
		return core.Table7(g)
	case "fig2":
		return core.Figure2(g)
	case "fig3":
		return core.Figure3(g)
	case "fig4":
		return core.Figure4(g)
	case "fig5":
		return core.Figure5(g, 9)
	case "fig6":
		return core.Figure6(g)
	}
	return nil, fmt.Errorf("unknown experiment %q (try table1..table7, fig1..fig7, all)", e)
}
