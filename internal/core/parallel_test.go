package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lossyts/internal/compress"
)

// swapGridCache replaces the memoisation cache with an empty one for the
// duration of the test, so tests that must force fresh computations (via
// ResetGridCache) do not evict the QuickOptions grid shared by the rest of
// the package.
func swapGridCache(t *testing.T) {
	t.Helper()
	gridMu.Lock()
	saved := gridCache
	gridCache = map[string]*GridResult{}
	gridMu.Unlock()
	t.Cleanup(func() {
		gridMu.Lock()
		gridCache = saved
		gridMu.Unlock()
	})
}

// equivalenceOptions is a small grid that still exercises every moving part
// of the inner pool: a shallow and a deep model, multiple seeds per model
// (so seed plumbing must survive reordering), and several cells.
func equivalenceOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.015
	o.Datasets = []string{"ETTm1"}
	o.Models = []string{"Arima", "DLinear"}
	o.ErrorBounds = []float64{0.05, 0.2}
	o.ShallowSeeds = 2
	o.DeepSeeds = 2
	o.Forecast.Epochs = 4
	o.Forecast.MaxTrainWindows = 64
	return o
}

// TestParallelSequentialEquivalence proves the worker pool is a pure
// scheduling change: every metric of a Parallelism: 8 run equals the
// Parallelism: 1 run bit for bit (==, no tolerance).
func TestParallelSequentialEquivalence(t *testing.T) {
	swapGridCache(t)

	seq := equivalenceOptions()
	seq.Parallelism = 1
	gSeq, err := RunGrid(seq)
	if err != nil {
		t.Fatal(err)
	}

	// Parallelism is not part of the memoisation key (results are
	// identical by design), so force a fresh computation.
	ResetGridCache()
	par := equivalenceOptions()
	par.Parallelism = 8
	gPar, err := RunGrid(par)
	if err != nil {
		t.Fatal(err)
	}
	if gSeq == gPar {
		t.Fatal("second RunGrid returned the memoised grid; the comparison is vacuous")
	}

	for _, name := range seq.datasets() {
		dsSeq, dsPar := gSeq.Datasets[name], gPar.Datasets[name]
		if dsSeq == nil || dsPar == nil {
			t.Fatalf("%s: missing dataset result", name)
		}
		for _, model := range seq.models() {
			if dsSeq.Baselines[model] != dsPar.Baselines[model] {
				t.Errorf("%s/%s: baselines differ: %+v vs %+v",
					name, model, dsSeq.Baselines[model], dsPar.Baselines[model])
			}
		}
		if len(dsSeq.Cells) != len(dsPar.Cells) {
			t.Fatalf("%s: cell counts differ: %d vs %d", name, len(dsSeq.Cells), len(dsPar.Cells))
		}
		for i, cs := range dsSeq.Cells {
			cp := dsPar.Cells[i]
			if cs.Method != cp.Method || cs.Epsilon != cp.Epsilon {
				t.Fatalf("%s: cell %d ordering differs: %s/%v vs %s/%v",
					name, i, cs.Method, cs.Epsilon, cp.Method, cp.Epsilon)
			}
			if cs.TE != cp.TE {
				t.Errorf("%s %s eps=%v: TE differs: %+v vs %+v", name, cs.Method, cs.Epsilon, cs.TE, cp.TE)
			}
			if cs.CR != cp.CR {
				t.Errorf("%s %s eps=%v: CR differs: %v vs %v", name, cs.Method, cs.Epsilon, cs.CR, cp.CR)
			}
			for _, model := range seq.models() {
				if cs.ModelMetrics[model] != cp.ModelMetrics[model] {
					t.Errorf("%s %s eps=%v %s: metrics differ: %+v vs %+v",
						name, cs.Method, cs.Epsilon, model, cs.ModelMetrics[model], cp.ModelMetrics[model])
				}
				if cs.TFE[model] != cp.TFE[model] {
					t.Errorf("%s %s eps=%v %s: TFE differs: %v vs %v",
						name, cs.Method, cs.Epsilon, model, cs.TFE[model], cp.TFE[model])
				}
			}
		}
	}
}

// gridGoldenAMD64 is the SHA-256 of the SaveGrid file TestRunGridGoldenDeterminism
// writes, as computed on linux/amd64. Float arithmetic may differ on other
// architectures, so the comparison runs on amd64 only.
const gridGoldenAMD64 = "f74172820c87f6e408b63760332769e7d6919b5ebc8146a3d1fbb65d78c2693b"

// TestRunGridGoldenDeterminism runs the same options twice with fresh
// caches and asserts the two persisted grids are byte-identical: the whole
// pipeline (synthetic data, compression, training, parallel merge, JSON
// encoding) is deterministic under one seed. On amd64 the bytes must also
// hash to the committed golden, so results cannot drift across commits.
func TestRunGridGoldenDeterminism(t *testing.T) {
	swapGridCache(t)

	opts := equivalenceOptions()
	opts.Models = []string{"Arima"}
	opts.ShallowSeeds = 2

	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json.gz"), filepath.Join(dir, "b.json.gz")}
	var blobs [2][]byte
	for i, path := range paths {
		ResetGridCache()
		g, err := RunGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveGrid(g, path); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("two fresh RunGrid runs serialised differently (%d vs %d bytes)", len(blobs[0]), len(blobs[1]))
	}
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256(blobs[0])
		if got := hex.EncodeToString(sum[:]); got != gridGoldenAMD64 {
			t.Fatalf("SaveGrid hash drifted from the committed golden:\n got  %s\n want %s", got, gridGoldenAMD64)
		}
	}
	// The persisted grid must round-trip into the cache with a working
	// keyed cell lookup.
	ResetGridCache()
	g, err := LoadGrid(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Datasets["ETTm1"]
	if ds == nil || ds.Cell(compress.MethodPMC, 0.05) == nil {
		t.Fatal("loaded grid lost the keyed cell lookup")
	}
}

// TestRunGridAggregatesAllErrors covers the RunGrid fix: when several
// datasets fail, every failure is reported (in dataset order), not just the
// first one observed.
func TestRunGridAggregatesAllErrors(t *testing.T) {
	swapGridCache(t)

	opts := equivalenceOptions()
	opts.Datasets = []string{"ETTm1", "Weather"}
	// An input length far beyond the shrunken test subset fails every
	// dataset before any training starts.
	opts.Forecast.InputLen = 1 << 20
	_, err := RunGrid(opts)
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, name := range opts.Datasets {
		if !strings.Contains(err.Error(), "dataset "+name) {
			t.Errorf("error drops dataset %s: %v", name, err)
		}
	}
}

// TestUnitErrorSurfaces checks that a unit-level failure (here: an unknown
// model, rejected by forecast.New inside the worker) aborts the run with a
// real error rather than the skip sentinel.
func TestUnitErrorSurfaces(t *testing.T) {
	swapGridCache(t)

	opts := equivalenceOptions()
	opts.Models = []string{"Arima", "NoSuchModel"}
	_, err := RunGrid(opts)
	if err == nil {
		t.Fatal("expected an error")
	}
	if errors.Is(err, errUnitSkipped) || !strings.Contains(err.Error(), "NoSuchModel") {
		t.Fatalf("want the failing unit's error, got: %v", err)
	}
}

// TestParallelStress is the race-hardening subject: many small datasets
// with an oversubscribed pool, followed by concurrent lazy feature
// extraction on the shared GridResult. Run with -race (CI does).
func TestParallelStress(t *testing.T) {
	swapGridCache(t)

	opts := DefaultOptions()
	opts.Scale = 0.015
	opts.Models = []string{"Arima"}
	opts.ShallowSeeds = 2
	opts.ErrorBounds = []float64{0.05, 0.2}
	opts.Methods = []compress.Method{compress.MethodPMC}
	opts.Parallelism = 16
	opts.Forecast.MaxTrainWindows = 64
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Datasets) != 6 {
		t.Fatalf("datasets = %d", len(g.Datasets))
	}
	if g.Timings.Units != int64(6*2) || g.Timings.CellEvals != int64(6*2*2) {
		t.Errorf("timing counters: units=%d cellEvals=%d", g.Timings.Units, g.Timings.CellEvals)
	}
	if g.Timings.Wall <= 0 || len(g.Timings.Stages) == 0 {
		t.Errorf("timings not recorded: %+v", g.Timings)
	}

	// Hammer the lazy feature cache from many goroutines; the race
	// detector verifies the lazy map initialisation and double-checked
	// caching are sound.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.FeatureRows(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestCellLookupKeyed verifies the map-backed lookup agrees with a linear
// scan on a freshly computed grid and that the fallback path still works on
// hand-assembled results without an index.
func TestCellLookupKeyed(t *testing.T) {
	g := quickGrid(t)
	for _, ds := range g.Datasets {
		if ds.index == nil {
			t.Fatalf("%s: no cell index built", ds.Name)
		}
		for _, c := range ds.Cells {
			if got := ds.Cell(c.Method, c.Epsilon); got != c {
				t.Fatalf("%s: keyed lookup returned wrong cell for %s eps=%v", ds.Name, c.Method, c.Epsilon)
			}
		}
		if ds.Cell(compress.MethodPMC, -1) != nil {
			t.Fatalf("%s: lookup invented a cell", ds.Name)
		}
	}
	bare := &DatasetResult{Cells: []*Cell{{Method: compress.MethodSZ, Epsilon: 0.3}}}
	if bare.Cell(compress.MethodSZ, 0.3) == nil {
		t.Fatal("linear fallback broken for unindexed results")
	}
}
