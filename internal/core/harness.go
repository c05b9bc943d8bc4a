package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/core/cellstore"
	"lossyts/internal/features"
	"lossyts/internal/forecast"
	"lossyts/internal/nn"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// Cell is one grid point: a (dataset, method, error bound) combination with
// its compression outcome and the forecasting metrics of every model when
// fed the decompressed test data (Algorithm 1, lines 5-10).
type Cell struct {
	Method   compress.Method
	Epsilon  float64
	CR       float64 // compression ratio on the test subset (.gz sizes)
	Segments int
	TE       stats.Metrics // raw vs decompressed test values
	// Decompressed holds the decompressed (raw-domain) test values.
	Decompressed []float64
	// ModelMetrics maps model name to its forecasting metrics (mean over
	// seeds) when predicting from the transformed input.
	ModelMetrics map[string]stats.Metrics
	// TFE maps model name to the transformation forecasting error computed
	// from NRMSE (Eq. 2).
	TFE map[string]float64
}

// DatasetResult is the full grid for one dataset.
type DatasetResult struct {
	Name           string
	SeasonalPeriod int
	Interval       int64
	// RawValues is the full (raw-domain) target series.
	RawValues []float64
	// RawTest is the raw-domain test subset.
	RawTest []float64
	// GorillaCR is the lossless baseline compression ratio (§3.3).
	GorillaCR float64
	// Baselines maps model name to its raw-data metrics (paper Table 2).
	Baselines map[string]stats.Metrics
	Cells     []*Cell

	// index maps each cell's address to its cell for O(1) lookup. It is
	// built once before the result escapes its constructor and is read-only
	// after. Epsilon comparison is exact (==), matching the grid
	// construction: bounds are taken verbatim from Options, never
	// recomputed — the same exactness the persistent store's CellKey relies
	// on.
	index map[CellAddr]*Cell
}

// buildIndex (re)derives the keyed cell lookup from Cells. Constructors
// (evaluateDataset, LoadGrid) call it before the result is shared.
func (d *DatasetResult) buildIndex() {
	d.index = make(map[CellAddr]*Cell, len(d.Cells))
	for _, c := range d.Cells {
		d.index[CellAddr{c.Method, c.Epsilon}] = c
	}
}

// Cell returns the grid cell for (method, eps), or nil.
func (d *DatasetResult) Cell(m compress.Method, eps float64) *Cell {
	if d.index != nil {
		return d.index[CellAddr{m, eps}]
	}
	// Hand-assembled results (tests) may lack the index; fall back to a scan.
	for _, c := range d.Cells {
		if c.Method == m && c.Epsilon == eps {
			return c
		}
	}
	return nil
}

// PhaseTimings reports where an evaluation run spent its time, plus work
// counters, so benchmarks can attribute speedups to specific stages.
type PhaseTimings struct {
	// Wall is the end-to-end wall clock of the RunGrid call that computed
	// the grid (memoised callers see the original run's value).
	Wall time.Duration
	// Units is the number of (model, seed) units executed.
	Units int64
	// CellEvals is the number of model-on-decompressed-cell evaluations.
	CellEvals int64
	// Stages reports the wall clock of each pipeline stage, in execution
	// order, summed across concurrently evaluated datasets, so the totals
	// measure aggregate compute and may exceed Wall.
	Stages []StageTiming
}

// StageTiming is the aggregate wall clock of one named pipeline stage.
type StageTiming struct {
	Name  string
	Total time.Duration
}

// timingAcc accumulates PhaseTimings across worker goroutines. The work
// counters are lock-free atomics; the per-stage map is touched once per
// (dataset, stage) and takes a mutex.
type timingAcc struct {
	units, cellEvals           atomic.Int64
	cellsLoaded, cellsComputed atomic.Int64

	mu      sync.Mutex
	stageNs map[string]int64
}

// addStage attributes one stage execution's wall clock.
func (a *timingAcc) addStage(name string, d time.Duration) {
	a.mu.Lock()
	if a.stageNs == nil {
		a.stageNs = map[string]int64{}
	}
	a.stageNs[name] += int64(d)
	a.mu.Unlock()
}

// snapshot renders the accumulated counters, listing stages in the given
// pipeline order (stages that never ran are omitted).
func (a *timingAcc) snapshot(wall time.Duration, order []string) PhaseTimings {
	pt := PhaseTimings{
		Wall:      wall,
		Units:     a.units.Load(),
		CellEvals: a.cellEvals.Load(),
	}
	a.mu.Lock()
	for _, name := range order {
		if ns, ok := a.stageNs[name]; ok {
			pt.Stages = append(pt.Stages, StageTiming{Name: name, Total: time.Duration(ns)})
		}
	}
	a.mu.Unlock()
	return pt
}

// Provenance records how a GridResult came to be, so consumers of
// persisted or resumed grids see an honest account instead of misleading
// zero timings: "loaded" grids legitimately have no phase timings, and a
// "resumed" grid's timings cover only the cells it actually computed.
type Provenance struct {
	// Source is "computed" (every cell evaluated this run), "loaded"
	// (every cell read from a store or saved grid), "resumed" (a mix:
	// stored cells reused, missing cells computed), or "merged" (the store
	// was assembled from N worker journals by MergeWorkerStores).
	Source string
	// StorePath is the result store or saved-grid file involved ("" for a
	// purely in-memory computation).
	StorePath string
	// CellsComputed and CellsLoaded count grid cells evaluated by this run
	// versus reused from the store.
	CellsComputed int
	CellsLoaded   int
	// Workers is the number of worker journals merged into the store (0
	// unless the store carries a MergeWorkerStores stamp). It is what
	// distinguishes a merged grid from an ordinary resumed one: both reuse
	// stored cells, but merged cells were computed by other processes.
	Workers int
}

// Provenance sources.
const (
	SourceComputed = "computed"
	SourceLoaded   = "loaded"
	SourceResumed  = "resumed"
	SourceMerged   = "merged"
)

// String renders a one-line provenance summary for reports.
func (p Provenance) String() string {
	switch p.Source {
	case SourceLoaded:
		return fmt.Sprintf("grid loaded from %s (%d cells; timings are not meaningful for loaded grids)",
			p.StorePath, p.CellsLoaded)
	case SourceResumed:
		return fmt.Sprintf("grid resumed from %s (%d cells loaded, %d computed; timings cover the computed delta only)",
			p.StorePath, p.CellsLoaded, p.CellsComputed)
	case SourceMerged:
		return fmt.Sprintf("grid merged from %d worker journals via %s (%d cells loaded, %d computed this run)",
			p.Workers, p.StorePath, p.CellsLoaded, p.CellsComputed)
	default:
		if p.StorePath != "" {
			return fmt.Sprintf("grid computed (%d cells, checkpointed to %s)", p.CellsComputed, p.StorePath)
		}
		return fmt.Sprintf("grid computed (%d cells)", p.CellsComputed)
	}
}

// GridResult is the complete evaluation output shared by all experiments.
type GridResult struct {
	Opts     Options
	Datasets map[string]*DatasetResult
	// Timings reports per-phase wall clock and work counters of the run
	// that computed this grid. Grids loaded from disk have zero timings and
	// resumed grids only the computed delta's; Provenance says which.
	Timings PhaseTimings
	// Provenance records whether the cells were computed, loaded from a
	// store, or a resumed mix of both.
	Provenance Provenance

	mu       sync.Mutex
	features map[string]features.Vector // lazy characteristic vectors
}

// featureCache returns the cached characteristic vector for key, lazily
// allocating the cache map. All access goes through these two helpers so
// the lazy initialisation is race-free even on zero-value GridResults.
func (g *GridResult) featureCache(key string) (features.Vector, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.features[key]
	return v, ok
}

func (g *GridResult) storeFeature(key string, v features.Vector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.features == nil {
		g.features = map[string]features.Vector{}
	}
	g.features[key] = v
}

var (
	gridMu    sync.Mutex
	gridCache = map[string]*GridResult{}
)

// ResetGridCache clears the in-process grid memoisation cache, forcing the
// next RunGrid call to recompute. It exists as a test and benchmark hook:
// determinism tests use it to compare two fresh computations, and the
// sequential-vs-parallel benchmarks use it to defeat memoisation.
func ResetGridCache() {
	gridMu.Lock()
	gridCache = map[string]*GridResult{}
	gridMu.Unlock()
}

// RunGridCached returns the memoised grid for opts if a prior call in this
// process computed or loaded one, without triggering any evaluation.
// Report-only callers (e.g. provenance lines) use it so experiments that
// never needed the grid do not suddenly compute it.
func RunGridCached(opts Options) (*GridResult, error) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if g, ok := gridCache[opts.key()]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("core: no grid has been computed for these options")
}

// RunGrid executes the paper's evaluation scenario over the configured grid
// and memoises the result per option set, so the table and figure
// generators share one computation. It is RunGridContext with a background
// context.
func RunGrid(opts Options) (*GridResult, error) {
	return RunGridContext(context.Background(), opts)
}

// RunGridContext is RunGrid under a cancellation context. The stage
// pipeline and the worker pools check ctx at stage, grid-cell, and training
// epoch boundaries; once ctx is cancelled the run drains promptly and
// returns ctx.Err() — not a join of one error per abandoned cell — and the
// partial result is never memoised.
//
// Datasets are evaluated concurrently, and within each dataset the
// (model, seed) units fan out across a bounded worker pool (see
// Options.Parallelism). Results are merged in a fixed order, so the output
// is bit-identical to a sequential run regardless of GOMAXPROCS or the
// Parallelism setting.
func RunGridContext(ctx context.Context, opts Options) (*GridResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := opts.key()
	gridMu.Lock()
	if g, ok := gridCache[key]; ok {
		gridMu.Unlock()
		return g, nil
	}
	gridMu.Unlock()

	// The kernel mode is process-global (the nn ops consult it at every
	// dispatch), so it is set once per grid computation. Each (model, seed)
	// unit owns a per-goroutine arena released when its fit/predict ends,
	// so cell boundaries never leak pooled buffers across units.
	nn.UseReferenceKernels(opts.ReferenceKernels)

	start := time.Now()
	rc := newRunContext(ctx, opts, DefaultPipeline())
	if opts.Store != "" {
		if err := rc.openStore(); err != nil {
			return nil, err
		}
		defer rc.store.Close()
	}
	g := &GridResult{Opts: opts, Datasets: map[string]*DatasetResult{}}
	results, err := runDatasets(rc, opts.datasets())
	if err != nil {
		return nil, err
	}
	for name, dr := range results {
		g.Datasets[name] = dr
	}
	g.Timings = rc.acc.snapshot(time.Since(start), rc.pipeline.StageNames())
	g.Provenance = rc.provenance()
	if rc.store != nil {
		// Record the completed option set last: its presence marks the
		// store as a finished run LoadGrid can assemble, so a kill at any
		// earlier point leaves an unambiguous checkpoint store.
		if err := putOptsRecord(rc.store, opts); err != nil {
			return nil, fmt.Errorf("core: recording completed run: %w", err)
		}
	}
	gridMu.Lock()
	gridCache[key] = g
	gridMu.Unlock()
	return g, nil
}

// openStore opens the run's result store, wires the checkpoint WorkExec,
// inserts the checkpoint stage (store-less pipelines keep their canonical
// stage list), and reads the merged-provenance stamp if one is present.
func (rc *RunContext) openStore() error {
	store, err := cellstore.Open(rc.opts.Store)
	if err != nil {
		return fmt.Errorf("core: opening result store: %w", err)
	}
	rc.store = store
	rc.exec = NewWorkExec(store)
	rc.workers = readWorkersStamp(store)
	if err := rc.pipeline.InsertAfter(StageAnalyze, Stage{Name: StageCheckpoint, Run: runCheckpoint}); err != nil {
		store.Close()
		return err
	}
	return nil
}

// runDatasets evaluates the named datasets concurrently up to the
// parallelism bound and returns the results by name. Each evaluation owns
// its models and RNGs, and each goroutine writes only its own slot, so no
// lock is needed and the results are identical to a sequential run. Both
// the full grid runner and the partition runner drive their datasets
// through it.
func runDatasets(rc *RunContext, names []string) (map[string]*DatasetResult, error) {
	type dsOut struct {
		dr  *DatasetResult
		err error
	}
	outs := make([]dsOut, len(names))
	sem := make(chan struct{}, rc.opts.parallelism())
	var wg sync.WaitGroup
	for i, name := range names {
		i, name := i, name
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := rc.Err(); err != nil {
				outs[i].err = err
				return
			}
			outs[i].dr, outs[i].err = evaluateDataset(rc, name)
		}()
	}
	wg.Wait()
	// A cancelled run reports the cancellation itself, promptly and alone:
	// every per-dataset error at this point is just ctx.Err() echoed back.
	if err := rc.Err(); err != nil {
		return nil, err
	}
	// Surface every dataset failure, in dataset order, rather than only the
	// first one observed.
	var errs []error
	for i, name := range names {
		if outs[i].err != nil {
			errs = append(errs, fmt.Errorf("core: dataset %s: %w", name, outs[i].err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	results := make(map[string]*DatasetResult, len(names))
	for i, name := range names {
		results[name] = outs[i].dr
	}
	return results, nil
}

// provenance summarises where the run's cells came from, from the
// loaded/computed counters the stages accumulated.
func (rc *RunContext) provenance() Provenance {
	p := Provenance{
		Source:        SourceComputed,
		CellsComputed: int(rc.acc.cellsComputed.Load()),
		CellsLoaded:   int(rc.acc.cellsLoaded.Load()),
	}
	if rc.store != nil {
		p.StorePath = rc.store.Path()
	}
	switch {
	case rc.workers > 0 && p.CellsLoaded > 0:
		// The store was assembled from worker journals; cells "loaded" from
		// it were computed by those workers, not resumed from our own
		// earlier run. Any computed count on top is a post-merge delta.
		p.Source = SourceMerged
		p.Workers = rc.workers
	case p.CellsLoaded > 0 && p.CellsComputed > 0:
		p.Source = SourceResumed
	case p.CellsLoaded > 0:
		p.Source = SourceLoaded
	}
	return p
}

// datasetPlan caches everything the (model, seed) units share within one
// dataset: the scaled train/val series, the raw evaluation windows, and one
// cellPlan per grid cell. Building it once per dataset removes the
// per-model, per-seed recomputation of scaler transforms and window
// slicing. All fields are read-only once the plan is built, so workers can
// share them without locks (Predict implementations never mutate inputs).
type datasetPlan struct {
	cfg            forecast.Config
	scTrain, scVal []float64
	rawWindows     *timeseries.WindowSet
	cells          []cellPlan
	evalStride     int
	phaseStart     int
}

// cellPlan is the cached per-cell evaluation input: the paired windows of
// the scaled decompressed values against the scaled raw targets. It depends
// only on the cell, never on the model or seed.
type cellPlan struct {
	method  compress.Method
	epsilon float64
	windows *timeseries.WindowSet
}

// unit is one fit-and-evaluate work item of the inner grid.
type unit struct {
	model string
	mi    int // index into opts.models()
	si    int // seed index within the model
}

// unitResult carries one unit's metrics back to the deterministic merge.
type unitResult struct {
	base  stats.Metrics
	cells []stats.Metrics // indexed like DatasetResult.Cells
	err   error
}

// errUnitSkipped marks units abandoned after another unit failed; the merge
// reports the first real error in unit order instead.
var errUnitSkipped = errors.New("core: unit skipped after earlier failure")

// evaluateDataset runs Algorithm 1 for one dataset across all models,
// methods, and error bounds by driving the run's stage pipeline
// (Ingest → Compress → Reconstruct → Window → Train → Forecast → Analyze).
// The per-cell transforms are computed once (datasetPlan) and the
// (model, seed) units fan out over a worker pool of opts.parallelism()
// goroutines; per-seed metrics are merged in seed order so the result is
// bit-identical to a sequential run.
func evaluateDataset(rc *RunContext, name string) (*DatasetResult, error) {
	st := &pipelineState{name: name}
	addrs := rc.ownedAddrs(name)
	if rc.store != nil {
		sd, err := loadStoredDataset(rc.store, rc.opts, name)
		if err != nil {
			return nil, err
		}
		// A dataset whose owned cells the store fully covers skips the
		// pipeline outright — no ingest, no compression, no training.
		// Partial coverage hands the stored cells to the pipeline, which
		// computes only the delta. Partition runs ask only about their own
		// slice and never need an assembled result: their output is the
		// journal, not a grid.
		if sd.completeFor(rc.opts, addrs) {
			rc.acc.cellsLoaded.Add(int64(len(addrs)))
			if rc.owned != nil {
				return nil, nil
			}
			return sd.assemble(rc.opts), nil
		}
		st.loaded = sd
	}
	// Journal the claim before computing: peers scanning this worker's
	// journal skip these cells when stealing. Advisory only — a racing
	// double-compute is bit-identical and merges cleanly.
	if rc.owned != nil {
		if err := rc.claim(name, addrs); err != nil {
			return nil, err
		}
	}
	if err := rc.pipeline.run(rc, st); err != nil {
		return nil, err
	}
	return st.dr, nil
}

// evaluateWindows predicts every window and scores the flattened forecasts
// against the flattened raw targets (calculateMetrics in Algorithm 1).
func evaluateWindows(model forecast.Model, ws *timeseries.WindowSet) (stats.Metrics, error) {
	preds, err := model.Predict(ws.Inputs())
	if err != nil {
		return stats.Metrics{}, err
	}
	var x, y []float64
	for i, p := range preds {
		y = append(y, p...)
		x = append(x, ws.Windows[i].Target...)
	}
	return stats.Evaluate(x, y)
}

func meanMetrics(ms []stats.Metrics) stats.Metrics {
	var out stats.Metrics
	if len(ms) == 0 {
		return out
	}
	for _, m := range ms {
		out.R += m.R
		out.RSE += m.RSE
		out.RMSE += m.RMSE
		out.NRMSE += m.NRMSE
	}
	n := float64(len(ms))
	out.R /= n
	out.RSE /= n
	out.RMSE /= n
	out.NRMSE /= n
	return out
}
