package core

import (
	"context"

	"lossyts/internal/compress"
	"lossyts/internal/datasets"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// RetrainResult is one point of the paper's §4.4.1 experiment (Figure 7):
// a model trained and evaluated on decompressed data, compared against its
// raw-data baseline.
type RetrainResult struct {
	Dataset string
	Model   string
	Method  compress.Method
	Epsilon float64
	NRMSE   float64
	TFE     float64
}

// RetrainOnDecompressed reproduces Figure 7: Arima and DLinear are
// retrained on the decompressed training data of the given datasets and
// their TFE per error bound is reported. The paper limits this experiment
// to ETTm1 and ETTm2 with error bounds up to ~0.2.
func RetrainOnDecompressed(opts Options, names []string, models []string, bounds []float64) ([]RetrainResult, error) {
	if len(names) == 0 {
		names = []string{"ETTm1", "ETTm2"}
	}
	if len(models) == 0 {
		models = []string{"Arima", "DLinear"}
	}
	if len(bounds) == 0 {
		bounds = []float64{0.01, 0.05, 0.1, 0.15, 0.2}
	}
	var out []RetrainResult
	ctx := context.Background()
	for _, name := range names {
		ds, err := datasets.Load(name, opts.Scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		// Every window is evaluated, one horizon apart.
		sc, err := NewScenario(ds.Target(), ds.SeasonalPeriod, opts.Forecast, 0)
		if err != nil {
			return nil, err
		}
		for _, modelName := range models {
			// Baseline: trained and evaluated on raw data.
			baseModel, err := sc.Fit(ctx, modelName, opts.Seed, nil, nil)
			if err != nil {
				return nil, err
			}
			baseMetrics, err := sc.Evaluate(baseModel, nil)
			if err != nil {
				return nil, err
			}
			for _, m := range opts.methods() {
				comp, err := compress.New(m)
				if err != nil {
					return nil, err
				}
				for _, eps := range bounds {
					var dec [3][]float64
					for i, part := range []*timeseries.Series{sc.Train, sc.Val, sc.Test} {
						c, err := comp.Compress(part, eps)
						if err != nil {
							return nil, err
						}
						d, err := c.Decompress()
						if err != nil {
							return nil, err
						}
						dec[i] = d.Values
					}
					model, err := sc.Fit(ctx, modelName, opts.Seed, dec[0], dec[1])
					if err != nil {
						return nil, err
					}
					// Inputs from decompressed test, accuracy against raw.
					mMetrics, err := sc.Evaluate(model, dec[2])
					if err != nil {
						return nil, err
					}
					tfe, err := stats.TFE(mMetrics.NRMSE, baseMetrics.NRMSE)
					if err != nil {
						return nil, err
					}
					out = append(out, RetrainResult{
						Dataset: name,
						Model:   modelName,
						Method:  m,
						Epsilon: eps,
						NRMSE:   mMetrics.NRMSE,
						TFE:     tfe,
					})
				}
			}
		}
	}
	return out, nil
}
