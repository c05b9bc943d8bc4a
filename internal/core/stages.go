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
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// RunContext bundles everything one grid run shares across its stages and
// worker goroutines: the cancellation context, the resolved options, the
// timing accumulator, and the stage pipeline.
type RunContext struct {
	ctx      context.Context
	opts     Options
	acc      *timingAcc
	pipeline *Pipeline
	// store is the open result store when Options.Store is set; nil
	// otherwise. Datasets load their stored cells from it before the
	// pipeline runs and the checkpoint stage appends to it as they finish.
	store *cellstore.Store
	// exec executes the run's checkpoint WorkUnits against store; non-nil
	// exactly when store is. It is the same executor type the serving plane
	// answers cache misses through.
	exec *WorkExec
	// owned, when non-nil, restricts the run to its slice of the grid: the
	// compress stages only materialise owned cells, so every downstream
	// stage (delta planning, training, checkpointing) sees a partial grid
	// without knowing partitions exist. nil means the run owns everything.
	owned *WorkSet
	// workers is the worker-journal count stamped into a merged store (0
	// for stores that were never merged); provenance reports it.
	workers int
}

func newRunContext(ctx context.Context, opts Options, p *Pipeline) *RunContext {
	return &RunContext{ctx: ctx, opts: opts, acc: &timingAcc{}, pipeline: p}
}

// Context returns the run's cancellation context.
func (rc *RunContext) Context() context.Context { return rc.ctx }

// Err reports the context's cancellation state; workers consult it at
// grid-cell and unit boundaries so a cancelled run stops promptly.
func (rc *RunContext) Err() error { return rc.ctx.Err() }

// Options returns the run's resolved option set.
func (rc *RunContext) Options() Options { return rc.opts }

// The stages of the per-dataset evaluation pipeline, in Algorithm 1 order.
const (
	StageIngest      = "ingest"      // generate, split, scale, lossless baseline
	StageCompress    = "compress"    // method × error-bound compression grid
	StageReconstruct = "reconstruct" // decompress each cell; CR and TE
	StageWindow      = "window"      // cache evaluation windows per cell
	StageTrain       = "train"       // fit every (model, seed) unit
	StageForecast    = "forecast"    // predict raw and per-cell windows
	StageAnalyze     = "analyze"     // deterministic merge, TFE attribution
)

// StageCheckpoint persists a finished dataset's records to the run's
// result store. RunGridContext appends it after StageAnalyze only when a
// store is configured, so store-less pipelines keep the exact stage list
// the timing tests and reports assert.
const StageCheckpoint = "checkpoint"

// Stage is one named, separately timed step of the evaluation pipeline.
// Stages communicate through the pipelineState they share; the engine runs
// them in order, checks cancellation between them, and attributes wall
// clock per stage into PhaseTimings.
type Stage struct {
	Name string
	Run  func(rc *RunContext, st *pipelineState) error
}

// Pipeline is an ordered stage graph. DefaultPipeline is Algorithm 1; a
// run with a result store appends the checkpoint stage to it.
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline from the given stages, in order.
func NewPipeline(stages ...Stage) *Pipeline {
	return &Pipeline{stages: append([]Stage(nil), stages...)}
}

// DefaultPipeline is the paper's Algorithm 1 as an explicit stage graph.
func DefaultPipeline() *Pipeline {
	return NewPipeline(
		Stage{Name: StageIngest, Run: runIngest},
		Stage{Name: StageCompress, Run: runCompress},
		Stage{Name: StageReconstruct, Run: runReconstruct},
		Stage{Name: StageWindow, Run: runWindow},
		Stage{Name: StageTrain, Run: runTrain},
		Stage{Name: StageForecast, Run: runForecast},
		Stage{Name: StageAnalyze, Run: runAnalyze},
	)
}

// StageNames lists the pipeline's stages in execution order.
func (p *Pipeline) StageNames() []string {
	out := make([]string, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.Name
	}
	return out
}

// run executes the stages in order for one dataset, checking cancellation
// at every stage boundary and attributing each stage's wall clock. Stage
// errors carry the stage name; cancellation surfaces as the bare context
// error so callers can return it promptly.
func (p *Pipeline) run(rc *RunContext, st *pipelineState) error {
	for _, stage := range p.stages {
		if err := rc.Err(); err != nil {
			return err
		}
		t := time.Now()
		err := stage.Run(rc, st)
		d := time.Since(t)
		rc.acc.addStage(stage.Name, d)
		if err != nil {
			if cerr := rc.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("stage %s: %w", stage.Name, err)
		}
	}
	return nil
}

// pipelineState is the mutable state the stages of one dataset evaluation
// share. Earlier stages fill fields later stages consume; nothing here is
// touched by more than one dataset, so only the worker pools inside the
// train/forecast stages need any synchronisation (slot-indexed writes).
type pipelineState struct {
	name string

	// Ingest outputs: Algorithm 1's split, scaling and window geometry for
	// the dataset's target, and the result the later stages fill in.
	sc *Scenario
	dr *DatasetResult

	// Compress → Reconstruct handoff, parallel to dr.Cells. A nil entry
	// marks a cell loaded from the result store: its reconstruction is
	// already in the Cell, so the reconstruct stage skips it.
	comps []*compress.Compressed

	// loaded is what the result store already holds for this dataset (nil
	// without a store, or when the dataset was never checkpointed).
	loaded *storedDataset
	// evalCells indexes the dr.Cells entries this run must (re)evaluate;
	// cellWindows and unitResult.cells are parallel to it, not to dr.Cells.
	// Without a store it lists every cell.
	evalCells []int
	// wantModels is the ordered subset of the requested models that must
	// actually be trained — those missing from any evalCell or from the
	// stored baselines. Without a store it is the full requested list.
	wantModels []string

	// Window outputs, read-only once built and shared by every (model,
	// seed) unit: the raw test windows, and one paired window set per
	// evalCells entry.
	rawWindows  *timeseries.WindowSet
	cellWindows []*timeseries.WindowSet

	// Train/Forecast state: the (model, seed) grid.
	models  []string
	units   []unit
	trained [][]forecast.Model
	results [][]unitResult
}

// deltaPlan decides which cells and models this run actually computes,
// given what the store already holds. Without a store nothing is loaded,
// so the plan is the full grid and the pipeline behaves exactly as it did
// before the store existed. Model order follows the requested list, so a
// delta run merges seeds in the same order as a full run — the property
// the bit-identity guarantee rests on.
func (st *pipelineState) deltaPlan(requested []string) {
	st.evalCells = nil
	st.wantModels = nil
	needModel := make(map[string]bool, len(requested))
	for _, model := range requested {
		if _, ok := st.dr.Baselines[model]; !ok {
			needModel[model] = true
		}
	}
	for ci, cell := range st.dr.Cells {
		missing := false
		for _, model := range requested {
			if _, ok := cell.ModelMetrics[model]; !ok {
				needModel[model] = true
				missing = true
			}
		}
		if missing {
			st.evalCells = append(st.evalCells, ci)
		}
	}
	for _, model := range requested {
		if needModel[model] {
			st.wantModels = append(st.wantModels, model)
		}
	}
}

// runIngest generates the dataset, splits and scales it, and computes the
// lossless Gorilla baseline (§3.3).
func runIngest(rc *RunContext, st *pipelineState) error {
	ds, err := datasets.Load(st.name, rc.opts.Scale, rc.opts.Seed)
	if err != nil {
		return err
	}
	target := ds.Target()
	if st.sc, err = NewScenario(target, ds.SeasonalPeriod, rc.opts.Forecast, rc.opts.MaxEvalWindows); err != nil {
		return err
	}
	test := st.sc.Test
	st.dr = &DatasetResult{
		Name:           st.name,
		SeasonalPeriod: ds.SeasonalPeriod,
		Interval:       ds.Interval,
		RawValues:      target.Values,
		RawTest:        test.Values,
		Baselines:      map[string]stats.Metrics{},
	}
	// Stored raw-data baselines carry over for models this run will not
	// retrain; any model it does retrain overwrites its entry with a
	// bit-identical value.
	st.loaded.fillBaselines(st.dr.Baselines)
	gor, err := (compress.Gorilla{}).Compress(test, 0)
	if err != nil {
		return err
	}
	st.dr.GorillaCR, err = compress.Ratio(test, gor)
	return err
}

// runCompress builds the model-independent compression grid: one cell per
// (method, error bound), in the options' order.
func runCompress(rc *RunContext, st *pipelineState) error {
	for _, m := range rc.opts.methods() {
		comp, err := compress.New(m)
		if err != nil {
			return err
		}
		for _, eps := range rc.opts.errorBounds() {
			if err := rc.Err(); err != nil {
				return err
			}
			// A partition run materialises only its owned cells; the rest
			// of the grid belongs to peer workers and never enters dr.Cells,
			// so every later stage sees a self-consistent partial grid.
			if !rc.owns(st.name, CellAddr{m, eps}) {
				continue
			}
			// A cell already in the result store slots straight into the
			// grid: its reconstruction was persisted, so compressing again
			// would be pure waste. The nil comps entry tells the
			// reconstruct stage to leave it alone.
			if lc := st.loaded.cell(m, eps); lc != nil {
				st.dr.Cells = append(st.dr.Cells, lc)
				st.comps = append(st.comps, nil)
				continue
			}
			c, err := comp.Compress(st.sc.Test, eps)
			if err != nil {
				return err
			}
			st.dr.Cells = append(st.dr.Cells, &Cell{
				Method:       m,
				Epsilon:      eps,
				Segments:     c.Segments,
				ModelMetrics: map[string]stats.Metrics{},
				TFE:          map[string]float64{},
			})
			st.comps = append(st.comps, c)
		}
	}
	return nil
}

// runReconstruct decompresses every cell and scores the reconstruction:
// compression ratio (Eq. 3) and transformation error against the raw test
// subset.
func runReconstruct(rc *RunContext, st *pipelineState) error {
	for ci, cell := range st.dr.Cells {
		if err := rc.Err(); err != nil {
			return err
		}
		if st.comps[ci] == nil {
			continue // loaded from the store, reconstruction already present
		}
		dec, err := st.comps[ci].Decompress()
		if err != nil {
			return err
		}
		if cell.CR, err = compress.Ratio(st.sc.Test, st.comps[ci]); err != nil {
			return err
		}
		if cell.TE, err = stats.Evaluate(st.sc.Test.Values, dec.Values); err != nil {
			return err
		}
		cell.Decompressed = dec.Values
	}
	st.dr.buildIndex()
	st.comps = nil // payloads are dead weight once reconstructed
	return nil
}

// runWindow caches the evaluation windows every (model, seed) unit shares:
// the raw baseline windows and one paired window set per cell.
func runWindow(rc *RunContext, st *pipelineState) error {
	var err error
	if st.rawWindows, err = st.sc.Windows(nil); err != nil {
		return err
	}
	// With a store, only the delta — cells or models the store lacks —
	// is planned, trained, and evaluated; stored results ride along
	// untouched. Without one the delta is the whole grid.
	st.deltaPlan(rc.opts.models())
	// A cell's paired windows depend only on the cell, so they are built
	// exactly once and shared (read-only) by every (model, seed) unit —
	// and only for cells that actually need evaluation.
	st.cellWindows = make([]*timeseries.WindowSet, len(st.evalCells))
	for pi, ci := range st.evalCells {
		if err := rc.Err(); err != nil {
			return err
		}
		if st.cellWindows[pi], err = st.sc.Windows(st.dr.Cells[ci].Decompressed); err != nil {
			return err
		}
	}
	return nil
}

// poolRun executes work(i) for every i in [0, n) on a worker pool bounded
// by the run's parallelism. After the first failure — or once the run is
// cancelled — remaining items are handed to skip instead, so a broken or
// abandoned grid drains in microseconds rather than training to the end.
func poolRun(rc *RunContext, n int, work func(i int) error, skip func(i int)) {
	workers := rc.opts.parallelism()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failed.Load() || rc.Err() != nil {
					skip(i)
					continue
				}
				if err := work(i); err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}

// unitErr scans the unit results in (model, seed) order and returns the
// first real failure; cancellation wins over any unit error so a cancelled
// run reports ctx.Err() rather than a pile of skipped units.
func (st *pipelineState) unitErr(rc *RunContext) error {
	if err := rc.Err(); err != nil {
		return err
	}
	for _, u := range st.units {
		if err := st.results[u.mi][u.si].err; err != nil && !errors.Is(err, errUnitSkipped) {
			return err
		}
	}
	return nil
}

// runTrain fits one model instance per (model, seed) unit over the worker
// pool. Each unit owns its model and RNG and writes only its own slot, so
// the pool is a pure scheduling change; training honours cancellation at
// epoch boundaries via forecast.FitContext.
func runTrain(rc *RunContext, st *pipelineState) error {
	st.models = st.wantModels
	st.trained = make([][]forecast.Model, len(st.models))
	st.results = make([][]unitResult, len(st.models))
	st.units = nil
	for mi, modelName := range st.models {
		nSeeds := rc.opts.seeds(modelName)
		st.trained[mi] = make([]forecast.Model, nSeeds)
		st.results[mi] = make([]unitResult, nSeeds)
		for si := 0; si < nSeeds; si++ {
			st.units = append(st.units, unit{model: modelName, mi: mi, si: si})
		}
	}
	poolRun(rc, len(st.units),
		func(i int) error {
			u := st.units[i]
			defer rc.acc.units.Add(1)
			model, err := st.sc.Fit(rc.ctx, u.model, rc.opts.Seed+int64(u.si)*7919, nil, nil)
			if err != nil {
				st.results[u.mi][u.si] = unitResult{err: err}
				return err
			}
			st.trained[u.mi][u.si] = model
			return nil
		},
		func(i int) {
			u := st.units[i]
			st.results[u.mi][u.si] = unitResult{err: errUnitSkipped}
		})
	return st.unitErr(rc)
}

// runForecast evaluates every trained unit on the raw baseline windows and
// on each cell's cached window set, checking cancellation at cell
// boundaries.
func runForecast(rc *RunContext, st *pipelineState) error {
	poolRun(rc, len(st.units),
		func(i int) error {
			u := st.units[i]
			model := st.trained[u.mi][u.si]
			base, err := st.sc.Score(model, st.rawWindows)
			if err != nil {
				err = fmt.Errorf("baseline %s: %w", u.model, err)
				st.results[u.mi][u.si] = unitResult{err: err}
				return err
			}
			cells := make([]stats.Metrics, len(st.cellWindows))
			for pi, ws := range st.cellWindows {
				if err := rc.Err(); err != nil {
					st.results[u.mi][u.si] = unitResult{err: err}
					return err
				}
				m, err := st.sc.Score(model, ws)
				if err != nil {
					cell := st.dr.Cells[st.evalCells[pi]]
					err = fmt.Errorf("%s on %s eps=%v: %w", u.model, cell.Method, cell.Epsilon, err)
					st.results[u.mi][u.si] = unitResult{err: err}
					return err
				}
				cells[pi] = m
			}
			rc.acc.cellEvals.Add(int64(len(st.cellWindows)))
			st.results[u.mi][u.si] = unitResult{base: base, cells: cells}
			return nil
		},
		func(i int) {
			u := st.units[i]
			st.results[u.mi][u.si] = unitResult{err: errUnitSkipped}
		})
	return st.unitErr(rc)
}

// runAnalyze merges per-seed metrics in (model, seed) order — the exact
// accumulation order of the sequential implementation, so means are
// bit-identical regardless of pool scheduling — and attributes TFE (Eq. 2).
func runAnalyze(rc *RunContext, st *pipelineState) error {
	for mi, modelName := range st.models {
		base := make([]stats.Metrics, len(st.results[mi]))
		cellAcc := make([][]stats.Metrics, len(st.evalCells))
		for si, res := range st.results[mi] {
			base[si] = res.base
			for pi := range st.evalCells {
				cellAcc[pi] = append(cellAcc[pi], res.cells[pi])
			}
		}
		baseMean := meanMetrics(base)
		st.dr.Baselines[modelName] = baseMean
		for pi, ci := range st.evalCells {
			cell := st.dr.Cells[ci]
			mm := meanMetrics(cellAcc[pi])
			cell.ModelMetrics[modelName] = mm
			if tfe, err := stats.TFE(mm.NRMSE, baseMean.NRMSE); err == nil {
				cell.TFE[modelName] = tfe
			}
		}
	}
	st.trained = nil // trained models are no longer needed once merged
	rc.acc.cellsComputed.Add(int64(len(st.evalCells)))
	rc.acc.cellsLoaded.Add(int64(len(st.dr.Cells) - len(st.evalCells)))
	return nil
}

// runCheckpoint appends the finished dataset to the result store via the
// run's WorkExec: the dataset unit first — so a present cell record always
// implies an at-least-as-new dataset record on resume — then one unit per
// cell this run computed. Refresh (not Do) because the delta planner
// already decided these must be written: a present-but-stale record (a
// grown model list) must be overwritten, not skipped. Each record is a
// single durable append; a kill between two of them loses only the record
// in flight.
func runCheckpoint(rc *RunContext, st *pipelineState) error {
	if _, err := rc.exec.Refresh(rc.ctx, datasetWorkUnit(rc.opts, st.dr)); err != nil {
		return err
	}
	for _, ci := range st.evalCells {
		if err := rc.Err(); err != nil {
			return err
		}
		if _, err := rc.exec.Refresh(rc.ctx, cellWorkUnit(rc.opts, st.name, st.dr.Cells[ci])); err != nil {
			return err
		}
	}
	return nil
}
