package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"lossyts/internal/compress"
	"lossyts/internal/core"
)

func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Scale = 0.02
	return opts
}

// runOutput runs one tsforecast evaluation on a fresh grid cache, so every
// run computes (or reads its store) instead of reusing a memoised grid.
func runOutput(t *testing.T, opts core.Options, model, method string) string {
	t.Helper()
	core.ResetGridCache()
	var b bytes.Buffer
	if err := run(&b, opts, "ETTm1", model, method, 0.1); err != nil {
		t.Fatalf("%s %s store=%q: %v", model, method, opts.Store, err)
	}
	return b.String()
}

// TestStoreOnlyAddsPersistence checks that -store changes nothing a run
// prints: the same flags give the same metrics with and without a store,
// and a repeat served from the store prints them again.
func TestStoreOnlyAddsPersistence(t *testing.T) {
	for _, model := range []string{"Arima", "DLinear"} {
		plain := runOutput(t, testOptions(), model, "PMC")
		if !strings.Contains(plain, "NRMSE") || !strings.Contains(plain, "TFE") {
			t.Fatalf("%s: output lacks the metric lines:\n%s", model, plain)
		}
		opts := testOptions()
		opts.Store = filepath.Join(t.TempDir(), "results.cells")
		for _, pass := range []string{"computed", "stored"} {
			if got := runOutput(t, opts, model, "PMC"); got != plain {
				t.Errorf("%s, %s with -store:\n%s\nwithout -store:\n%s", model, pass, got, plain)
			}
		}
	}
}

// TestBaselineIsGridBaseline checks that a run without -method prints the
// raw-data baseline the evaluation grid computes for the same options.
func TestBaselineIsGridBaseline(t *testing.T) {
	for _, model := range []string{"Arima", "DLinear"} {
		got := runOutput(t, testOptions(), model, "")
		opts := testOptions()
		opts.Datasets = []string{"ETTm1"}
		opts.Models = []string{model}
		opts.Methods = []compress.Method{compress.MethodPMC}
		opts.ErrorBounds = []float64{0.1}
		g, err := core.RunGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		printMetrics(&want, g.Datasets["ETTm1"].Baselines[model])
		if !strings.HasSuffix(got, want.String()) {
			t.Errorf("%s: printed\n%s\nwant the grid baseline\n%s", model, got, want.String())
		}
	}
}
