// Command tsforecast trains one of the paper's forecasting models on a
// synthetic dataset and reports the evaluation metrics of Algorithm 1: on
// raw test inputs, or with -method on test inputs lossy-compressed first,
// with the TFE against the raw baseline:
//
//	tsforecast -dataset ETTm1 -model DLinear
//	tsforecast -dataset ETTm1 -model Arima -method PMC -eps 0.1
//
// The numbers are those of the evaluation grid for the default options: a
// -method run is a one-cell grid. -store only adds persistence: the first
// invocation trains and checkpoints the cell in a cell-addressed result
// store, and repeating it (or running a grid that contains it) reuses the
// stored result:
//
//	tsforecast -dataset ETTm1 -model Arima -method PMC -eps 0.1 -store results.cells
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lossyts/internal/cli"
	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/stats"
)

func main() {
	var (
		dataset = flag.String("dataset", "ETTm1", "dataset: ETTm1, ETTm2, Solar, Weather, ElecDem, Wind")
		model   = flag.String("model", "DLinear", "forecasting model")
		method  = flag.String("method", "", "optional lossy method for the test input: "+cli.MethodList(compress.LossyMethods()))
		eps     = flag.Float64("eps", 0.1, "error bound when -method is set")
		scale   = flag.Float64("scale", 0.05, "dataset length scale")
		seed    = flag.Int64("seed", 1, "random seed")
		common  = cli.Bind(flag.CommandLine)
	)
	common.BindStore(flag.CommandLine)
	flag.Parse()
	// For a single training run the worker bound acts on the runtime itself.
	common.ApplyGOMAXPROCS()
	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", err)
		os.Exit(1)
	}
	opts := core.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Parallelism = common.Parallelism
	opts.Store = common.Store
	runErr := run(os.Stdout, opts, *dataset, *model, *method, *eps)
	// Profiles are flushed before any exit path: os.Exit skips defers.
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", runErr)
		os.Exit(1)
	}
}

// run evaluates modelName on dataset under opts and prints the metrics to
// w. With a method the evaluation is the (method, eps) cell of a one-cell
// grid, checkpointed in opts.Store when it is set. Without one it is the
// raw-data baseline, which is the grid's baseline for the same options.
func run(w io.Writer, opts core.Options, dataset, modelName, method string, eps float64) error {
	if method == "" {
		if opts.Store != "" {
			return fmt.Errorf("-store needs -method (the store addresses cells by compression method and error bound)")
		}
		return runBaseline(w, opts, dataset, modelName)
	}
	opts.Datasets = []string{dataset}
	opts.Models = []string{modelName}
	opts.Methods = []compress.Method{compress.Method(method)}
	opts.ErrorBounds = []float64{eps}
	g, err := core.RunGrid(opts)
	if err != nil {
		return err
	}
	cell := g.Datasets[dataset].Cell(compress.Method(method), eps)
	if cell == nil {
		return fmt.Errorf("grid has no cell for %s eps=%g", method, eps)
	}
	fmt.Fprintf(w, "test input compressed with %s eps=%g: CR %.2fx, %d segments\n",
		method, eps, cell.CR, cell.Segments)
	printMetrics(w, cell.ModelMetrics[modelName])
	if tfe, ok := cell.TFE[modelName]; ok {
		fmt.Fprintf(w, "TFE          %.4f\n", tfe)
	}
	fmt.Fprintln(os.Stderr, g.Provenance.String())
	return nil
}

// runBaseline trains modelName with the grid's first seed and scores it on
// the raw test windows.
func runBaseline(w io.Writer, opts core.Options, dataset, modelName string) error {
	ds, err := datasets.Load(dataset, opts.Scale, opts.Seed)
	if err != nil {
		return err
	}
	sc, err := core.NewScenario(ds.Target(), ds.SeasonalPeriod, opts.Forecast, opts.MaxEvalWindows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "training %s on %s (%d train points)...\n", modelName, dataset, sc.Train.Len())
	model, err := sc.Fit(context.Background(), modelName, opts.Seed, nil, nil)
	if err != nil {
		return err
	}
	ws, err := sc.Windows(nil)
	if err != nil {
		return err
	}
	m, err := sc.Score(model, ws)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "windows      %d (input %d, horizon %d)\n", ws.Len(), sc.Cfg.InputLen, sc.Cfg.Horizon)
	printMetrics(w, m)
	return nil
}

func printMetrics(w io.Writer, m stats.Metrics) {
	fmt.Fprintf(w, "R            %.4f\n", m.R)
	fmt.Fprintf(w, "RSE          %.4f\n", m.RSE)
	fmt.Fprintf(w, "RMSE         %.4f\n", m.RMSE)
	fmt.Fprintf(w, "NRMSE        %.4f\n", m.NRMSE)
}
