// Package core implements the paper's evaluation harness: Algorithm 1
// (EvaluateScenario), the full dataset × model × compressor × error-bound
// grid, the characteristic and SHAP analyses, and one report generator per
// table and figure of the paper's evaluation section. Results are memoised
// per option set so every experiment can share one grid computation.
package core

import (
	"fmt"
	"runtime"

	"lossyts/internal/compress"
	"lossyts/internal/forecast"
)

// Options configures a full evaluation run.
type Options struct {
	// Scale shrinks dataset lengths ((0, 1]; 1 = paper scale).
	Scale float64
	// Seed is the base random seed; run r uses Seed + r.
	Seed int64
	// Datasets and Models select subsets of the paper's grid (nil = all).
	Datasets []string
	Models   []string
	// Methods and ErrorBounds select the compression grid (nil = paper's).
	Methods     []compress.Method
	ErrorBounds []float64
	// DeepSeeds and ShallowSeeds are the number of repeated runs for deep
	// and shallow models (paper: 10 and 5; scaled runs use fewer).
	DeepSeeds    int
	ShallowSeeds int
	// MaxEvalWindows caps the number of test windows per evaluation
	// (evenly subsampled; 0 = all windows, as the paper evaluates).
	MaxEvalWindows int
	// Parallelism bounds the worker pools of the evaluation harness: both
	// the dataset-level fan-out in RunGrid and the per-dataset (model,
	// seed) pool. 0 means runtime.NumCPU(). 1 forces a fully sequential
	// run. Results are bit-identical at every setting — parallelism only
	// changes scheduling, never values — so it is excluded from the
	// memoisation key.
	Parallelism int
	// Forecast carries window sizes and training hyperparameters; zero
	// values fall back to forecast.DefaultConfig.
	Forecast forecast.Config
	// Store is the path of a cell-addressed result store ("" = off). With a
	// store, RunGridContext checkpoints every completed cell as its dataset
	// finishes, skips cells already present on re-run — so a killed run
	// resumes where it left off — and computes only the delta when the grid
	// grows (new error bounds, methods, datasets, or models). Stored and
	// recomputed cells are bit-identical by construction (see CellKey), so
	// like Parallelism the field is excluded from the memoisation key.
	Store string
}

// DefaultOptions is the paper's grid at laptop scale: all datasets, models,
// methods, and the 13 error bounds, at 3% dataset length with one seed per
// model class.
func DefaultOptions() Options {
	cfg := forecast.DefaultConfig()
	// The default grid favours wall-clock over the last drop of accuracy;
	// PaperOptions restores the full training budget.
	cfg.Epochs = 8
	cfg.MaxTrainWindows = 256
	return Options{
		Scale:          0.03,
		Seed:           1,
		Datasets:       nil,
		Models:         nil,
		Methods:        nil,
		ErrorBounds:    nil,
		DeepSeeds:      1,
		ShallowSeeds:   1,
		MaxEvalWindows: 48,
		Forecast:       cfg,
	}
}

// PaperOptions is the full-scale configuration matching §3 (long runtime).
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = 1
	o.DeepSeeds = 10
	o.ShallowSeeds = 5
	o.MaxEvalWindows = 0 // evaluate every window, as the paper does
	o.Forecast = forecast.DefaultConfig()
	o.Forecast.Epochs = 30
	o.Forecast.MaxTrainWindows = 0 // no cap
	return o
}

// QuickOptions is a minimal configuration for unit tests: two datasets,
// the three shallow-ish models, and four error bounds.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.015
	o.Datasets = []string{"ETTm1", "Weather"}
	o.Models = []string{"Arima", "GBoost", "DLinear"}
	o.ErrorBounds = []float64{0.01, 0.05, 0.1, 0.4}
	o.Forecast.Epochs = 6
	o.Forecast.MaxTrainWindows = 96
	return o
}

func (o Options) datasets() []string {
	if len(o.Datasets) > 0 {
		return o.Datasets
	}
	return []string{"ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind"}
}

func (o Options) models() []string {
	if len(o.Models) > 0 {
		return o.Models
	}
	return forecast.ModelNames
}

func (o Options) methods() []compress.Method {
	if len(o.Methods) > 0 {
		return o.Methods
	}
	return compress.Methods
}

func (o Options) errorBounds() []float64 {
	if len(o.ErrorBounds) > 0 {
		return o.ErrorBounds
	}
	return compress.ErrorBounds
}

func (o Options) seeds(model string) int {
	if forecast.IsDeep(model) {
		if o.DeepSeeds > 0 {
			return o.DeepSeeds
		}
		return 1
	}
	if o.ShallowSeeds > 0 {
		return o.ShallowSeeds
	}
	return 1
}

// parallelism resolves the worker-pool bound (0 = NumCPU).
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// key is the memoisation key: the grid signature shared with the result
// store (every cell-identity field, see Options.CellKey) plus the grid
// selectors. Parallelism and Store are deliberately excluded — they change
// scheduling or persistence, and the harness guarantees bit-identical
// results at every setting.
func (o Options) key() string {
	return fmt.Sprintf("%s|%v|%v|%v|%v",
		o.gridSignature(), o.datasets(), o.models(), o.methods(), o.errorBounds())
}
