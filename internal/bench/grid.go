package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// gridOptions is the grid workload: the paper's Algorithm 1 over two
// datasets, every model, every parameter-free lossy codec and four bounds.
// Options.Seed seeds both the generated datasets and model initialisation,
// because the grid derives both from it. Early stopping is off (patience
// 0), so every unit trains its full epoch budget and the training work
// does not depend on the seed; six epochs keep the run near the default
// grid's length with early stopping.
func gridOptions(c *child) core.Options {
	o := core.DefaultOptions()
	o.Seed = c.spec.Seed
	o.Datasets = []string{"ETTm1", "Weather"}
	o.Methods = compress.LossyMethods()
	o.ErrorBounds = []float64{0.01, 0.05, 0.1, 0.4}
	o.Parallelism = loadWorkers
	o.Forecast.Patience = 0
	o.Forecast.Epochs = 6
	if c.spec.Small {
		o.Datasets = []string{"ETTm1"}
		o.Models = []string{"Arima", "DLinear"}
		o.Methods = []compress.Method{compress.MethodPMC, compress.MethodSZ}
		o.ErrorBounds = []float64{0.05, 0.4}
		o.Scale = 0.015
		o.Forecast.Epochs = 2
		o.Forecast.MaxTrainWindows = 64
	}
	return o
}

func gridModelList(o core.Options) []string {
	if len(o.Models) > 0 {
		return o.Models
	}
	return forecast.ModelNames
}

// gridSeeds mirrors the grid's per-model seed count.
func gridSeeds(o core.Options, model string) int {
	n := o.ShallowSeeds
	if forecast.IsDeep(model) {
		n = o.DeepSeeds
	}
	return max(n, 1)
}

// runGrid times one RunGridContext call. Every cell is an operation whose
// result is available when the call returns, so each cell's latency is the
// call's wall clock.
func runGrid(c *child) error {
	opts := gridOptions(c)
	cells := len(opts.Datasets) * len(opts.Methods) * len(opts.ErrorBounds)
	if !c.ready() {
		return nil
	}
	c.begin()
	span := c.rec.Begin("core.RunGridContext", 0, 0)
	g, err := core.RunGridContext(context.Background(), opts)
	c.rec.End(span)
	wall := c.end()
	if err != nil {
		for i := 0; i < cells; i++ {
			c.op(wall*1e3, fmt.Sprintf("grid: %v", err))
		}
		return nil
	}
	for _, name := range opts.Datasets {
		for _, m := range opts.Methods {
			for _, eps := range opts.ErrorBounds {
				c.op(wall*1e3, checkGridCell(g, opts, name, m, eps))
			}
		}
	}
	if msg := gridGolden(c, g); msg != "" {
		c.fail("%s", msg)
	}
	if c.rec != nil {
		gridLayers(c, g, wall)
		replayGrid(c, g, opts)
	}
	return nil
}

// checkGridCell checks one cell's outputs: a reconstruction within the
// error bound and finite metrics for every model.
func checkGridCell(g *core.GridResult, opts core.Options, name string, m compress.Method, eps float64) string {
	dr := g.Datasets[name]
	if dr == nil {
		return fmt.Sprintf("grid %s: dataset missing", name)
	}
	cell := dr.Cell(m, eps)
	if cell == nil {
		return fmt.Sprintf("grid %s/%s/%g: cell missing", name, m, eps)
	}
	if msg := checkBound(dr.RawTest, cell.Decompressed, eps); msg != "" {
		return fmt.Sprintf("grid %s/%s/%g: %s", name, m, eps, msg)
	}
	for _, model := range gridModelList(opts) {
		mm, ok := cell.ModelMetrics[model]
		base, bok := dr.Baselines[model]
		if !ok || !bok || math.IsNaN(mm.NRMSE) || math.IsInf(mm.NRMSE, 0) || math.IsNaN(base.NRMSE) {
			return fmt.Sprintf("grid %s/%s/%g: %s metrics missing or not finite", name, m, eps, model)
		}
	}
	return ""
}

// checkBound applies the codec contract |v − v̂| ≤ ε·|v| with the same
// tolerance as the compress package's property test: ε(1+1e-9)+1e-12,
// absolute where v = 0.
func checkBound(raw, dec []float64, eps float64) string {
	if len(raw) != len(dec) {
		return fmt.Sprintf("reconstruction has %d values, want %d", len(dec), len(raw))
	}
	limit := eps*(1+1e-9) + 1e-12
	for i, v := range raw {
		d := math.Abs(v - dec[i])
		if av := math.Abs(v); av > 0 {
			d /= av
		}
		if !(d <= limit) {
			return fmt.Sprintf("index %d: %v decodes to %v (relative error %g > %g)", i, v, dec[i], d, eps)
		}
	}
	return ""
}

// gridGolden hashes the saved grid, the grid's canonical serialisation.
func gridGolden(c *child, g *core.GridResult) string {
	dir, err := os.MkdirTemp("", "lossyts-bench-")
	if err != nil {
		return err.Error()
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "grid.cells")
	if err := core.SaveGrid(g, path); err != nil {
		return fmt.Sprintf("SaveGrid: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	return c.output("savegrid", raw)
}

// gridLayers reports the grid's own stage timings. Stage totals are summed
// over the concurrently evaluated datasets, so with loadWorkers cores the
// stages plus idle core time add up to wall × loadWorkers.
func gridLayers(c *child, g *core.GridResult, wall float64) {
	busy := 0.0
	for _, st := range g.Timings.Stages {
		c.metric("core.stage."+st.Name+"_s", st.Total.Seconds())
		busy += st.Total.Seconds()
	}
	c.metric("core.idle_core_s", wall*loadWorkers-busy)
	c.metric("core.units", float64(g.Timings.Units))
	c.metric("core.cell_evals", float64(g.Timings.CellEvals))
}

// replayPlan is the bench-side copy of one dataset's evaluation inputs,
// rebuilt from the public datasets, timeseries and forecast APIs exactly
// as the grid's ingest and window stages build them.
type replayPlan struct {
	name       string
	cfg        forecast.Config
	scTrain    []float64
	scVal      []float64
	phaseStart int
	evalStride int
	raw        *timeseries.WindowSet
	cells      []*timeseries.WindowSet // parallel to dr.Cells
}

func newReplayPlan(opts core.Options, dr *core.DatasetResult) (*replayPlan, error) {
	ds, err := datasets.Load(dr.Name, opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	train, val, test, err := ds.Target().Split(0.7, 0.1, 0.2)
	if err != nil {
		return nil, err
	}
	var sc timeseries.StandardScaler
	if err := sc.Fit(train.Values); err != nil {
		return nil, err
	}
	cfg := opts.Forecast
	cfg.SeasonalPeriod = ds.SeasonalPeriod
	stride := cfg.Horizon
	if m := opts.MaxEvalWindows; m > 0 {
		if full := (test.Len() - cfg.InputLen - cfg.Horizon) / cfg.Horizon; full > m {
			stride = (test.Len() - cfg.InputLen - cfg.Horizon) / m
		}
	}
	scTest := sc.Transform(test.Values)
	p := &replayPlan{
		name: dr.Name, cfg: cfg, scTrain: sc.Transform(train.Values), scVal: sc.Transform(val.Values),
		phaseStart: (train.Len() + val.Len()) % ds.SeasonalPeriod, evalStride: stride,
	}
	if p.raw, err = timeseries.MakeWindows(scTest, cfg.InputLen, cfg.Horizon, stride); err != nil {
		return nil, err
	}
	for _, cell := range dr.Cells {
		ws, err := timeseries.MakePairedWindows(sc.Transform(cell.Decompressed), scTest, cfg.InputLen, cfg.Horizon, stride)
		if err != nil {
			return nil, err
		}
		p.cells = append(p.cells, ws)
	}
	return p, nil
}

// replayUnit is one (dataset, model, seed) fit-and-evaluate unit and the
// NRMSE values it reproduced.
type replayUnit struct {
	plan  *replayPlan
	model string
	seed  int
	base  float64
	cells []float64
	err   error
}

// replayGrid refits every unit of the grid from outside it, timing
// forecast.New+FitContext and every Predict call per model, and requires
// the reproduced NRMSE of every baseline and cell to equal the grid's bit
// for bit.
func replayGrid(c *child, g *core.GridResult, opts core.Options) {
	var units []*replayUnit
	for _, name := range opts.Datasets {
		plan, err := newReplayPlan(opts, g.Datasets[name])
		if err != nil {
			c.fail("replay %s: %v", name, err)
			return
		}
		for _, model := range gridModelList(opts) {
			for si := 0; si < gridSeeds(opts, model); si++ {
				units = append(units, &replayUnit{plan: plan, model: model, seed: si})
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				units[i].err = replayOne(c.rec, units[i], opts.Seed, int64(i))
			}
		}()
	}
	wg.Wait()
	for _, m := range forecast.ModelNames {
		c.metric("forecast.fit."+m+"_s", c.rec.Total("forecast.fit/"+m))
		c.metric("forecast.predict."+m+"_s", c.rec.Total("forecast.predict/"+m))
	}
	compareReplay(c, g, units)
}

func replayOne(rec *Recorder, u *replayUnit, baseSeed, req int64) error {
	root := rec.Begin("replay.unit/"+u.model, 0, req)
	defer rec.End(root)
	cfg := u.plan.cfg
	cfg.Seed = baseSeed + int64(u.seed)*7919
	fit := rec.Begin("forecast.fit/"+u.model, root, req)
	model, err := forecast.New(u.model, cfg)
	if err == nil {
		err = forecast.FitContext(context.Background(), model, u.plan.scTrain, u.plan.scVal)
	}
	rec.End(fit)
	if err != nil {
		return err
	}
	if pa, ok := model.(forecast.PhaseAware); ok {
		pa.SetWindowPhase(u.plan.phaseStart, u.plan.evalStride)
	}
	if u.base, err = replayPredict(rec, u.model, model, u.plan.raw, root, req); err != nil {
		return err
	}
	for _, ws := range u.plan.cells {
		v, err := replayPredict(rec, u.model, model, ws, root, req)
		if err != nil {
			return err
		}
		u.cells = append(u.cells, v)
	}
	return nil
}

// replayPredict predicts every window and scores the flattened forecasts
// against the flattened targets, as the grid's forecast stage does.
func replayPredict(rec *Recorder, name string, model forecast.Model, ws *timeseries.WindowSet, parent int, req int64) (float64, error) {
	span := rec.Begin("forecast.predict/"+name, parent, req)
	preds, err := model.Predict(ws.Inputs())
	rec.End(span)
	if err != nil {
		return 0, err
	}
	var x, y []float64
	for i, p := range preds {
		y = append(y, p...)
		x = append(x, ws.Windows[i].Target...)
	}
	m, err := stats.Evaluate(x, y)
	return m.NRMSE, err
}

// compareReplay averages the replayed seeds in seed order, as the grid's
// analyze stage does, and compares bit patterns.
func compareReplay(c *child, g *core.GridResult, units []*replayUnit) {
	type key struct{ ds, model string }
	byKey := map[key][]*replayUnit{}
	var order []key
	for _, u := range units {
		if u.err != nil {
			c.fail("replay %s/%s seed %d: %v", u.plan.name, u.model, u.seed, u.err)
			return
		}
		k := key{u.plan.name, u.model}
		if byKey[k] == nil {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], u)
	}
	for _, k := range order {
		us := byKey[k]
		dr := g.Datasets[k.ds]
		mean := func(get func(*replayUnit) float64) float64 {
			acc := 0.0
			for _, u := range us {
				acc += get(u)
			}
			return acc / float64(len(us))
		}
		if got, want := mean(func(u *replayUnit) float64 { return u.base }), dr.Baselines[k.model].NRMSE; math.Float64bits(got) != math.Float64bits(want) {
			c.fail("replay %s/%s baseline NRMSE %v != grid %v", k.ds, k.model, got, want)
		}
		for ci, cell := range dr.Cells {
			got := mean(func(u *replayUnit) float64 { return u.cells[ci] })
			if want := cell.ModelMetrics[k.model].NRMSE; math.Float64bits(got) != math.Float64bits(want) {
				c.fail("replay %s/%s %s/%g NRMSE %v != grid %v", k.ds, k.model, cell.Method, cell.Epsilon, got, want)
			}
		}
	}
}
