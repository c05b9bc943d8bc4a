package core

import (
	"fmt"
	"math"
	"sort"

	"lossyts/internal/compress"
	"lossyts/internal/features"
	"lossyts/internal/gbt"
	"lossyts/internal/stats"
)

// rawKey marks the uncompressed feature vector in the feature cache.
const rawKey = "RAW"

// featureVector extracts (and caches) the characteristic vector of the
// dataset's test values, either raw or for a specific grid cell.
func (g *GridResult) featureVector(ds *DatasetResult, method compress.Method, eps float64) (features.Vector, error) {
	key := fmt.Sprintf("%s|%s|%v", ds.Name, method, eps)
	values := ds.RawTest
	if method != rawKey {
		cell := ds.Cell(method, eps)
		if cell == nil {
			return nil, fmt.Errorf("core: no cell %s eps=%v for %s", method, eps, ds.Name)
		}
		values = cell.Decompressed
	} else {
		key = fmt.Sprintf("%s|%s", ds.Name, rawKey)
	}
	if v, ok := g.featureCache(key); ok {
		return v, nil
	}
	period := ds.SeasonalPeriod
	if period > len(values)/4 {
		period = len(values) / 4
	}
	v, err := features.Extract(values, features.Options{Period: period})
	if err != nil {
		return nil, err
	}
	g.storeFeature(key, v)
	return v, nil
}

// FeatureRow is one observation of the characteristic analysis: the feature
// deltas of a grid cell and the cell's mean TFE across models (§4.3.1).
type FeatureRow struct {
	Dataset string
	Method  compress.Method
	Epsilon float64
	Delta   features.Vector
	RelDiff features.Vector
	TFE     float64
}

// FeatureRows extracts one row per grid cell across all datasets. A row's
// TFE is the mean of the cell's finite TFEs, summed in the option set's
// model order so the row's bits do not depend on map iteration.
func (g *GridResult) FeatureRows() ([]FeatureRow, error) {
	models := g.Opts.models()
	var rows []FeatureRow
	for _, name := range g.Opts.datasets() {
		ds := g.Datasets[name]
		raw, err := g.featureVector(ds, rawKey, 0)
		if err != nil {
			return nil, err
		}
		for _, cell := range ds.Cells {
			dec, err := g.featureVector(ds, cell.Method, cell.Epsilon)
			if err != nil {
				return nil, err
			}
			var tfe float64
			var n int
			for _, model := range models {
				if v, ok := cell.TFE[model]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
					tfe += v
					n++
				}
			}
			if n == 0 {
				continue
			}
			rows = append(rows, FeatureRow{
				Dataset: ds.Name,
				Method:  cell.Method,
				Epsilon: cell.Epsilon,
				Delta:   features.Delta(raw, dec),
				RelDiff: features.RelativeDelta(raw, dec),
				TFE:     tfe / float64(n),
			})
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no feature rows (empty grid)")
	}
	return rows, nil
}

// FeatureCorrelation holds one characteristic's Spearman correlation to TFE
// (paper Table 4).
type FeatureCorrelation struct {
	Name        string
	Correlation float64
}

// SpearmanToTFE ranks all characteristics by the absolute Spearman
// correlation between their delta and TFE across the grid.
func SpearmanToTFE(rows []FeatureRow) []FeatureCorrelation {
	if len(rows) == 0 {
		return nil
	}
	names := rows[0].Delta.Names()
	tfe := make([]float64, len(rows))
	for i, r := range rows {
		tfe[i] = r.TFE
	}
	var out []FeatureCorrelation
	for _, name := range names {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = math.Abs(r.Delta[name])
		}
		rho, err := stats.Spearman(col, tfe)
		if err != nil {
			rho = 0 // constant characteristics (e.g. nperiods) carry no signal
		}
		out = append(out, FeatureCorrelation{Name: name, Correlation: rho})
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].Correlation) > math.Abs(out[j].Correlation)
	})
	return out
}

// SHAPResult is the output of the surrogate-model analysis (paper §4.3.1,
// Figure 5): a GBoost model predicting TFE from characteristic deltas,
// explained with exact TreeSHAP.
type SHAPResult struct {
	R2         float64
	Importance []FeatureCorrelation // mean |SHAP| per characteristic, sorted
}

// SHAPAnalysis trains the GBoost surrogate and ranks the characteristics by
// mean absolute Shapley value.
func SHAPAnalysis(rows []FeatureRow) (*SHAPResult, error) {
	if len(rows) < 10 {
		return nil, fmt.Errorf("core: %d rows too few for SHAP analysis", len(rows))
	}
	names := rows[0].Delta.Names()
	x := make([][]float64, len(rows))
	y := make([]float64, len(rows))
	for i, r := range rows {
		row := make([]float64, len(names))
		for j, n := range names {
			row[j] = r.Delta[n]
		}
		x[i] = row
		y[i] = r.TFE
	}
	// Hold out every fifth observation so early stopping curbs overfitting
	// and the reported R² reflects fit quality, as the paper's 0.9 does.
	// Tiny grids (debug configurations) skip the holdout: with a handful of
	// observations early stopping would fire before anything is learned.
	trainX, trainY := x, y
	var valX [][]float64
	var valY []float64
	if len(x) >= 60 {
		trainX, trainY = nil, nil
		for i := range x {
			if i%5 == 4 {
				valX = append(valX, x[i])
				valY = append(valY, y[i])
			} else {
				trainX = append(trainX, x[i])
				trainY = append(trainY, y[i])
			}
		}
	}
	ens, err := gbt.Fit(trainX, trainY, valX, valY, gbt.Options{
		Trees:        150,
		LearningRate: 0.1,
		Tree:         gbt.TreeOptions{MaxDepth: 4, MinLeaf: 3},
		Patience:     15,
	})
	if err != nil {
		return nil, err
	}
	imp := ens.MeanAbsShap(x)
	out := &SHAPResult{R2: ens.R2(x, y)}
	for j, n := range names {
		out.Importance = append(out.Importance, FeatureCorrelation{Name: n, Correlation: imp[j]})
	}
	sort.Slice(out.Importance, func(i, j int) bool {
		return out.Importance[i].Correlation > out.Importance[j].Correlation
	})
	return out, nil
}
