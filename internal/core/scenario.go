package core

import (
	"context"
	"fmt"

	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// Scenario is the protocol of the paper's Algorithm 1 (EvaluateScenario)
// for one target series: the 70/10/20 split, a scaler fitted on the raw
// training part, models fitted on the scaled training and validation parts,
// and test windows scored on raw or reconstructed inputs against the raw
// targets. The grid stages, Figure 7's retraining, /v1/forecast and
// tsforecast all evaluate through it, so they cannot drift apart. A
// Scenario is read-only once built, so worker goroutines share one.
type Scenario struct {
	// Cfg is the resolved forecast config every model is built from.
	Cfg              forecast.Config
	Train, Val, Test *timeseries.Series

	scaler                 timeseries.StandardScaler
	scTrain, scVal, scTest []float64
	// stride is the step between evaluation windows; phase is the
	// seasonal phase of the first test value.
	stride, phase int
}

// NewScenario splits target and fits the scaler on its training part. A
// zero cfg.InputLen selects forecast.DefaultConfig; period becomes the
// config's seasonal period either way. maxEvalWindows caps the number of
// test windows by widening the stride between them (0 = every window, one
// horizon apart).
func NewScenario(target *timeseries.Series, period int, cfg forecast.Config, maxEvalWindows int) (*Scenario, error) {
	train, val, test, err := target.Split(0.7, 0.1, 0.2)
	if err != nil {
		return nil, err
	}
	if cfg.InputLen == 0 {
		cfg = forecast.DefaultConfig()
	}
	cfg.SeasonalPeriod = period
	span := test.Len() - cfg.InputLen - cfg.Horizon
	if span <= 0 {
		return nil, fmt.Errorf("test subset too short (%d) for input %d + horizon %d: the series needs at least %d points",
			test.Len(), cfg.InputLen, cfg.Horizon, (cfg.InputLen+cfg.Horizon+1)*5)
	}
	sc := &Scenario{Cfg: cfg, Train: train, Val: val, Test: test, stride: cfg.Horizon}
	if err := sc.scaler.Fit(train.Values); err != nil {
		return nil, err
	}
	sc.scTrain = sc.scaler.Transform(train.Values)
	sc.scVal = sc.scaler.Transform(val.Values)
	sc.scTest = sc.scaler.Transform(test.Values)
	if maxEvalWindows > 0 && span/cfg.Horizon > maxEvalWindows {
		sc.stride = span / maxEvalWindows
	}
	if period > 0 {
		sc.phase = (train.Len() + val.Len()) % period
	}
	return sc, nil
}

// Fit builds the named model from the scenario's config with the given seed
// and trains it under ctx on the scaled training and validation parts.
// Non-nil train and val replace those parts (Figure 7 retrains on
// decompressed data); they are scaled by the scaler fitted on the raw
// training part.
func (sc *Scenario) Fit(ctx context.Context, name string, seed int64, train, val []float64) (forecast.Model, error) {
	cfg := sc.Cfg
	cfg.Seed = seed
	model, err := forecast.New(name, cfg)
	if err != nil {
		return nil, err
	}
	scTrain, scVal := sc.scTrain, sc.scVal
	if train != nil {
		scTrain, scVal = sc.scaler.Transform(train), sc.scaler.Transform(val)
	}
	if err := forecast.FitContext(ctx, model, scTrain, scVal); err != nil {
		return nil, fmt.Errorf("fit %s: %w", name, err)
	}
	return model, nil
}

// Windows returns the test windows: over the raw test part when inputs is
// nil, otherwise inputs (a reconstruction of the test part) paired with the
// raw targets. Windows depend only on the inputs, so callers that score
// many models on the same inputs build them once.
func (sc *Scenario) Windows(inputs []float64) (*timeseries.WindowSet, error) {
	if inputs == nil {
		return timeseries.MakeWindows(sc.scTest, sc.Cfg.InputLen, sc.Cfg.Horizon, sc.stride)
	}
	return timeseries.MakePairedWindows(sc.scaler.Transform(inputs), sc.scTest, sc.Cfg.InputLen, sc.Cfg.Horizon, sc.stride)
}

// Score predicts every window of ws and scores the flattened forecasts
// against the flattened raw targets (calculateMetrics in Algorithm 1).
// Phase-aware models (Arima) first learn the windows' real time indices for
// their Fourier terms, exactly as the paper's timestamps give them.
func (sc *Scenario) Score(model forecast.Model, ws *timeseries.WindowSet) (stats.Metrics, error) {
	if pa, ok := model.(forecast.PhaseAware); ok && sc.Cfg.SeasonalPeriod > 0 {
		pa.SetWindowPhase(sc.phase, sc.stride)
	}
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

// Evaluate scores model over the windows of inputs (nil = the raw test
// part); see Windows and Score.
func (sc *Scenario) Evaluate(model forecast.Model, inputs []float64) (stats.Metrics, error) {
	ws, err := sc.Windows(inputs)
	if err != nil {
		return stats.Metrics{}, err
	}
	return sc.Score(model, ws)
}
