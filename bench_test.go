// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (see DESIGN.md for the per-experiment index), plus the
// ablation benches for the design decisions DESIGN.md calls out and
// micro-benchmarks of the compressors.
//
// The experiment grid is memoised per option set, so the first benchmark to
// touch it pays the full evaluation cost and the rest reuse it. Run with:
//
//	go test -bench=. -benchmem
package lossyts_test

import (
	"fmt"
	"testing"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

// benchOptions is the shared grid configuration: all six datasets, all
// seven models, all three methods, all 13 bounds, at 3% dataset length.
func benchOptions() core.Options {
	return core.DefaultOptions()
}

func benchGrid(b *testing.B) *core.GridResult {
	b.Helper()
	g, err := core.RunGrid(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- One benchmark per paper artefact -------------------------------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BaselineResults(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RegressionCRvsTE(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table3(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4SpearmanCharacteristics(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table4(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5ElbowAnalysis(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table5(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6CharacteristicSensitivity(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table6(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7BestModels(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table7(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1CompressionOutput(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure1(opts, 96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2TEandCR(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure2(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3SegmentCounts(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure3(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4TFEvsTE(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure4(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5SHAPCharacteristics(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(g, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6ModelTFE(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure6(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7RetrainDecompressed(b *testing.B) {
	opts := benchOptions()
	opts.Scale = 0.02
	for i := 0; i < b.N; i++ {
		if _, err := core.RetrainOnDecompressed(opts,
			[]string{"ETTm1"}, []string{"Arima", "DLinear"}, []float64{0.05, 0.1, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md design decisions) -------------------------

// BenchmarkAblationAbsoluteVsRelativeBound compares the compression ratio
// of the relative bound used in the paper against the classic absolute
// bound at a comparable tolerance.
func BenchmarkAblationAbsoluteVsRelativeBound(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	s := ds.Target()
	for i := 0; i < b.N; i++ {
		rel, err := (compress.PMC{}).Compress(s, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		abs, err := (compress.PMC{Absolute: true}).Compress(s, 0.1*13.3) // ε·mean
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rr, _ := compress.Ratio(s, rel)
			ra, _ := compress.Ratio(s, abs)
			b.ReportMetric(rr, "relCR")
			b.ReportMetric(ra, "absCR")
		}
	}
}

// BenchmarkAblationGzipStage quantifies the contribution of the shared
// final gzip stage (§3.2) to PMC's compressed size.
func BenchmarkAblationGzipStage(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	s := ds.Target()
	for i := 0; i < b.N; i++ {
		c, err := (compress.PMC{}).Compress(s, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		body, err := compress.GunzipBytes(c.Payload)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(body)), "rawBytes")
			b.ReportMetric(float64(c.Size()), "gzBytes")
		}
	}
}

// BenchmarkAblationSZBlockSize sweeps the SZ block size (DESIGN.md item 4).
func BenchmarkAblationSZBlockSize(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	s := ds.Target()
	for _, bs := range []int{32, 128, 512} {
		bs := bs
		b.Run(fmt.Sprintf("block%d", bs), func(b *testing.B) {
			z := compress.SZ{BlockSize: bs}
			for i := 0; i < b.N; i++ {
				c, err := z.Compress(s, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					cr, _ := compress.Ratio(s, c)
					b.ReportMetric(cr, "CR")
				}
			}
		})
	}
}

// BenchmarkAblationSeasonalPMC compares the §5-direction SeasonalPMC
// compressor against plain PMC: it reports the CR trade-off of storing the
// seasonal profile exactly. On noisy data the profile costs a little CR; on
// strongly seasonal data it wins outright (see
// TestSeasonalPMCBeatsePMCOnSeasonalData) — and in both cases the seasonal
// autocorrelation the paper identifies as forecasting-critical survives any
// bound.
func BenchmarkAblationSeasonalPMC(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	s := ds.Target()
	for i := 0; i < b.N; i++ {
		sp, err := (compress.SeasonalPMC{Period: ds.SeasonalPeriod}).Compress(s, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pmc, err := (compress.PMC{}).Compress(s, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			spCR, _ := compress.Ratio(s, sp)
			pmcCR, _ := compress.Ratio(s, pmc)
			b.ReportMetric(spCR, "seasonalCR")
			b.ReportMetric(pmcCR, "pmcCR")
		}
	}
}

// BenchmarkAblationStreamingVsBatch confirms streaming encoding adds no
// size overhead over batch compression (stream.go design).
func BenchmarkAblationStreamingVsBatch(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	s := ds.Target()
	for i := 0; i < b.N; i++ {
		enc, err := compress.NewStreamEncoder(compress.MethodPMC, s, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range s.Values {
			if err := enc.Push(v); err != nil {
				b.Fatal(err)
			}
		}
		streamed, err := enc.Close()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			batch, err := (compress.PMC{}).Compress(s, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(streamed.Size()), "streamBytes")
			b.ReportMetric(float64(batch.Size()), "batchBytes")
		}
	}
}

// --- Micro-benchmarks -------------------------------------------------------

func benchSeries() *timeseries.Series {
	return datasets.MustLoad("ETTm1", 0.03, 1).Target()
}

func BenchmarkCompressPMC(b *testing.B) {
	s := benchSeries()
	b.SetBytes(int64(8 * s.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := (compress.PMC{}).Compress(s, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSwing(b *testing.B) {
	s := benchSeries()
	b.SetBytes(int64(8 * s.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := (compress.Swing{}).Compress(s, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSZ(b *testing.B) {
	s := benchSeries()
	b.SetBytes(int64(8 * s.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := compress.NewSZ().Compress(s, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressGorilla(b *testing.B) {
	s := benchSeries()
	b.SetBytes(int64(8 * s.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := (compress.Gorilla{}).Compress(s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressPMC(b *testing.B) {
	s := benchSeries()
	c, err := (compress.PMC{}).Compress(s, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * s.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecastDLinearPredict(b *testing.B) {
	ds := datasets.MustLoad("ETTm1", 0.03, 1)
	train, val, test, err := ds.Target().Split(0.7, 0.1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := forecast.DefaultConfig()
	cfg.SeasonalPeriod = ds.SeasonalPeriod
	cfg.Epochs = 3
	m, err := forecast.New("DLinear", cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sc timeseries.StandardScaler
	if err := sc.Fit(train.Values); err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(sc.Transform(train.Values), sc.Transform(val.Values)); err != nil {
		b.Fatal(err)
	}
	ws, err := timeseries.MakeWindows(sc.Transform(test.Values), cfg.InputLen, cfg.Horizon, cfg.Horizon)
	if err != nil {
		b.Fatal(err)
	}
	inputs := ws.Inputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Inner-grid parallelism benchmarks --------------------------------------

// innerGridOptions is one dataset's inner forecasting grid, sized so the
// (model, seed) fan-out dominates: a shallow and two heavier models, two
// seeds each, over 2 bounds x 3 methods = 6 cells.
func innerGridOptions() core.Options {
	o := core.DefaultOptions()
	o.Datasets = []string{"ETTm1"}
	o.Models = []string{"Arima", "GBoost", "DLinear"}
	o.ErrorBounds = []float64{0.05, 0.2}
	o.ShallowSeeds = 2
	o.DeepSeeds = 2
	o.Forecast.Epochs = 4
	o.Forecast.MaxTrainWindows = 64
	return o
}

// benchInnerGrid measures a full fresh evaluation of the inner grid at the
// given parallelism. The memoisation cache is reset every iteration so each
// run pays the real cost; results are bit-identical at every setting, so
// the two benchmarks below are directly comparable. Their ratio is the
// inner-grid speedup (recorded in EXPERIMENTS.md).
func benchInnerGrid(b *testing.B, parallelism int) {
	b.Helper()
	opts := innerGridOptions()
	opts.Parallelism = parallelism
	for i := 0; i < b.N; i++ {
		core.ResetGridCache()
		g, err := core.RunGrid(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var forecastSec float64
			for _, s := range g.Timings.Stages {
				if s.Name == core.StageTrain || s.Name == core.StageForecast {
					forecastSec += s.Total.Seconds()
				}
			}
			b.ReportMetric(forecastSec, "forecastSec")
			b.ReportMetric(float64(g.Timings.Units), "units")
			b.ReportMetric(float64(g.Timings.CellEvals), "cellEvals")
		}
	}
}

func BenchmarkEvaluateDatasetSequential(b *testing.B) { benchInnerGrid(b, 1) }

func BenchmarkEvaluateDatasetParallel(b *testing.B) { benchInnerGrid(b, 0) }
