package lossyts

import (
	"bytes"
	"context"

	"lossyts/internal/anomaly"
	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/core/cellstore"
	"lossyts/internal/datasets"
	"lossyts/internal/features"
	"lossyts/internal/forecast"
	"lossyts/internal/impact"
	"lossyts/internal/serve"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// Re-exported data model types.
type (
	// Series is a regular time series (constant sampling interval).
	Series = timeseries.Series
	// Frame is a multivariate time series with a forecasting target column.
	Frame = timeseries.Frame
	// StandardScaler standardises model inputs as the paper does (§3.4).
	StandardScaler = timeseries.StandardScaler
	// WindowSet is a batch of (input, target) forecasting windows.
	WindowSet = timeseries.WindowSet
	// Chunk is a bounded run of consecutive points — the unit of the
	// streaming data plane. Its Values slice is only valid until the next
	// Source.Next call; copy if you need to keep it.
	Chunk = timeseries.Chunk
	// SeriesSource yields a series chunk by chunk. Implement it to feed
	// third-party data (files, sockets, sensors) into the streaming
	// encoders without materialising the series; Series.Chunks adapts an
	// in-memory series.
	SeriesSource = timeseries.Source
)

// DefaultChunkSize is the chunk length used when a caller passes a
// non-positive chunk size to the streaming APIs.
const DefaultChunkSize = timeseries.DefaultChunkSize

// NewSeries constructs a regular time series.
func NewSeries(name string, start, interval int64, values []float64) *Series {
	return timeseries.New(name, start, interval, values)
}

// CollectSeries drains a chunk source into an in-memory series — the
// bridge back from the streaming data plane to the batch APIs.
func CollectSeries(name string, src SeriesSource) (*Series, error) {
	return timeseries.Collect(name, src)
}

// MakeWindows slices values into overlapping (input, target) forecasting
// windows.
func MakeWindows(values []float64, inputLen, horizon, stride int) (*WindowSet, error) {
	return timeseries.MakeWindows(values, inputLen, horizon, stride)
}

// MakePairedWindows builds windows whose inputs come from one series (e.g.
// decompressed data) and whose targets come from another (the raw data) —
// the pairing of the paper's Algorithm 1.
func MakePairedWindows(inputs, targets []float64, inputLen, horizon, stride int) (*WindowSet, error) {
	return timeseries.MakePairedWindows(inputs, targets, inputLen, horizon, stride)
}

// Compression API.
type (
	// Method identifies a compression algorithm.
	Method = compress.Method
	// Compressed is a compressed series; its Payload length is the .gz size
	// used in all compression ratios.
	Compressed = compress.Compressed
	// Compressor is the pointwise error-bounded compressor interface.
	Compressor = compress.Compressor
)

// The compression methods evaluated in the paper.
const (
	PMC     = compress.MethodPMC
	Swing   = compress.MethodSwing
	SZ      = compress.MethodSZ
	Gorilla = compress.MethodGorilla
)

// SeasonalPMC is the forecasting-aware compressor built for the paper's §5
// research direction: it stores the seasonal profile exactly and applies
// PMC to the residuals, so seasonality survives any error bound. Construct
// it with the series' seasonal period.
type SeasonalPMC = compress.SeasonalPMC

// ErrorBounds is the paper's 13 pointwise relative error bounds (§3.2).
var ErrorBounds = compress.ErrorBounds

// Compress encodes s with the given method so that every decompressed
// value v̂ satisfies |v − v̂| ≤ epsilon·|v| (lossless methods ignore epsilon).
func Compress(m Method, s *Series, epsilon float64) (*Compressed, error) {
	c, err := compress.New(m)
	if err != nil {
		return nil, err
	}
	return c.Compress(s, epsilon)
}

// Ratio returns the compression ratio raw/compressed, both as .gz sizes
// (paper Eq. 3).
func Ratio(s *Series, c *Compressed) (float64, error) { return compress.Ratio(s, c) }

// RawGzipSize returns the gzipped size of the raw CSV encoding of s.
func RawGzipSize(s *Series) (int, error) { return compress.RawGzipSize(s) }

// FrameResult aggregates per-column compression of a multivariate frame.
type FrameResult = compress.FrameResult

// CompressFrame compresses every column of a frame with one method/bound.
func CompressFrame(m Method, f *Frame, epsilon float64) (*FrameResult, error) {
	return compress.CompressFrame(m, f, epsilon)
}

// DecompressFrame reconstructs a frame compressed with CompressFrame.
func DecompressFrame(r *FrameResult, template *Frame) (*Frame, error) {
	return compress.DecompressFrame(r, template)
}

// Streaming data plane: encode and decode chunk by chunk with bounded
// memory. Streamed payloads are byte-identical to batch compression —
// batch Compress drives the same incremental kernels — so ratios, error
// bounds, and decoded values cannot differ between the two planes.
type (
	// StreamEncoder compresses a series incrementally (Push or PushChunk),
	// producing byte-identical output to batch compression — the paper's
	// edge scenario.
	StreamEncoder = compress.StreamEncoder
	// StreamDecoder reconstructs a compressed series chunk by chunk; it is
	// a SeriesSource, so the decoded stream can feed any chunk consumer.
	StreamDecoder = compress.StreamDecoder
)

// NewStreamEncoder returns a streaming encoder for the series' metadata.
// PMC, Swing, SZ, and Gorilla stream through true incremental kernels;
// other registered methods buffer internally and fall back to batch
// encoding at Close (same bytes, batch memory).
func NewStreamEncoder(m Method, s *Series, epsilon float64) (*StreamEncoder, error) {
	return compress.NewStreamEncoder(m, s, epsilon)
}

// NewStreamEncoderAt is NewStreamEncoder for callers that know the start
// timestamp and sampling interval but have no materialised Series — the
// usual case at the edge.
func NewStreamEncoderAt(m Method, start, interval int64, epsilon float64) (*StreamEncoder, error) {
	return compress.NewStreamEncoderAt(m, start, interval, epsilon)
}

// NewBufferedStreamEncoder wraps any Compressor (e.g. an externally
// registered one with no incremental kernel) in the StreamEncoder
// interface by buffering points and batch-compressing at Close.
func NewBufferedStreamEncoder(c Compressor, start, interval int64, epsilon float64) (*StreamEncoder, error) {
	return compress.NewBufferedStreamEncoder(c, start, interval, epsilon)
}

// NewStreamDecoder returns a chunked decoder over a compressed payload
// (any registered method). chunkSize ≤ 0 uses DefaultChunkSize.
func NewStreamDecoder(c *Compressed, chunkSize int) (*StreamDecoder, error) {
	return compress.NewStreamDecoder(c, chunkSize)
}

// CompressorRegistration declares an externally implemented compression
// method: its name, payload wire code (built-ins use 1–5; external codes
// should start at 64), constructor, and payload-body decoder.
type CompressorRegistration = compress.Registration

// UnknownMethodError reports a compression method no registration matches.
type UnknownMethodError = compress.UnknownMethodError

// RegisterCompressor adds a compression method to the global registry, so
// Compress, the evaluation grid (EvalOptions.Methods), and payload decoding
// accept it like a built-in. It panics if the name or wire code is already
// taken. Call it from an init function.
func RegisterCompressor(r CompressorRegistration) { compress.Register(r) }

// RegisteredMethods lists every registered compression method, sorted.
func RegisteredMethods() []Method { return compress.Registered() }

// EncodePayloadHeader writes the standard payload header for an external
// compressor's Compress implementation; the method must be registered.
func EncodePayloadHeader(w *bytes.Buffer, m Method, s *Series) error {
	return compress.EncodeHeader(w, m, s)
}

// FinishPayload gzips an encoded payload into a Compressed result, as every
// built-in compressor does.
func FinishPayload(m Method, epsilon float64, s *Series, payload []byte, segments int) (*Compressed, error) {
	return compress.Finish(m, epsilon, s, payload, segments)
}

// Forecasting API.
type (
	// Model is a trained forecaster (Fit on scaled series, Predict windows).
	Model = forecast.Model
	// ForecastConfig carries window sizes and training hyperparameters.
	ForecastConfig = forecast.Config
)

// ModelNames lists the paper's seven forecasting models.
var ModelNames = forecast.ModelNames

// NewModel returns a fresh model by name ("Arima", "GBoost", "DLinear",
// "GRU", "Informer", "NBeats", "Transformer").
func NewModel(name string, cfg ForecastConfig) (Model, error) { return forecast.New(name, cfg) }

// DefaultForecastConfig mirrors the paper's hyperparameters at laptop scale.
func DefaultForecastConfig() ForecastConfig { return forecast.DefaultConfig() }

// ModelRegistration declares an externally implemented forecasting model:
// its name, constructor, and whether it trains like a deep model (deep
// models get EvalOptions.DeepSeeds repetitions instead of ShallowSeeds).
type ModelRegistration = forecast.Registration

// UnknownModelError reports a model name no registration matches.
type UnknownModelError = forecast.UnknownModelError

// RegisterModel adds a forecasting model to the global registry, so
// NewModel and the evaluation grid (EvalOptions.Models) accept it like a
// built-in. It panics on a duplicate name. Call it from an init function.
func RegisterModel(r ModelRegistration) { forecast.Register(r) }

// RegisteredModels lists every registered model name, sorted.
func RegisteredModels() []string { return forecast.Registered() }

// SearchSpace defines the hyperparameter grid of the paper's §3.4 search.
type SearchSpace = forecast.SearchSpace

// SearchHyperparameters runs the paper's validation-subset grid search and
// returns the best configuration plus the full evaluation trace.
func SearchHyperparameters(model string, base ForecastConfig, space SearchSpace, train, val []float64) (ForecastConfig, []forecast.SearchResult, error) {
	return forecast.SearchHyperparameters(model, base, space, train, val)
}

// Datasets API.

// Dataset is a generated evaluation dataset.
type Dataset = datasets.Dataset

// DatasetNames lists the paper's six datasets.
var DatasetNames = datasets.Names

// LoadDataset generates a synthetic dataset matching the paper's Table 1
// statistics; scale in (0, 1] shrinks the length (1 = paper scale).
func LoadDataset(name string, scale float64, seed int64) (*Dataset, error) {
	return datasets.Load(name, scale, seed)
}

// MustLoadDataset is LoadDataset that panics on error.
func MustLoadDataset(name string, scale float64, seed int64) *Dataset {
	return datasets.MustLoad(name, scale, seed)
}

// DatasetStream generates a dataset's target column chunk by chunk — a
// SeriesSource whose values are bit-identical to
// LoadDataset(...).Target().Values with O(chunk) steady-state memory (after
// a one-time cached calibration pass per configuration). Datasets
// registered without streaming support fall back to batch generation
// behind the same interface.
type DatasetStream = datasets.TargetStream

// StreamDataset returns a chunked generator for a dataset's target column.
// chunkSize ≤ 0 uses DefaultChunkSize.
func StreamDataset(name string, scale float64, seed int64, chunkSize int) (*DatasetStream, error) {
	return datasets.StreamTarget(name, scale, seed, chunkSize)
}

// DatasetSpec is the target statistics of a registered dataset (length,
// sampling interval, seasonal period, and Table 1 summary statistics).
type DatasetSpec = datasets.Spec

// DatasetRegistration declares an externally implemented dataset: its name,
// spec, and generator.
type DatasetRegistration = datasets.Registration

// UnknownDatasetError reports a dataset name no registration matches.
type UnknownDatasetError = datasets.UnknownDatasetError

// RegisterDataset adds a dataset to the global registry, so LoadDataset and
// the evaluation grid (EvalOptions.Datasets) accept it like a built-in. It
// panics on a duplicate name. Call it from an init function.
func RegisterDataset(r DatasetRegistration) { datasets.Register(r) }

// RegisteredDatasets lists every registered dataset name, sorted.
func RegisteredDatasets() []string { return datasets.Registered() }

// SyntheticSpec controls characteristic-adjustable synthetic data, the
// validation methodology the paper proposes as future work (§7).
type SyntheticSpec = datasets.SyntheticSpec

// DefaultSyntheticSpec is a balanced synthetic series.
func DefaultSyntheticSpec() SyntheticSpec { return datasets.DefaultSyntheticSpec() }

// SyntheticDataset generates a series with the spec's characteristics.
func SyntheticDataset(spec SyntheticSpec) (*Dataset, error) { return datasets.Synthetic(spec) }

// NewEnsemble blends member models with validation-error weights — the
// paper's §5 suggestion of pairing a strong forecaster with a resilient one
// (e.g. "Transformer" and "Arima").
func NewEnsemble(cfg ForecastConfig, members ...string) (Model, error) {
	return forecast.NewEnsemble(cfg, members...)
}

// Metrics and characteristics.
type (
	// Metrics bundles R, RSE, RMSE, and NRMSE (paper §3.5).
	Metrics = stats.Metrics
	// FeatureVector is a named characteristic vector (tsfeatures-style).
	FeatureVector = features.Vector
)

// Evaluate computes the paper's four metrics of predictions y against x.
func Evaluate(x, y []float64) (Metrics, error) { return stats.Evaluate(x, y) }

// TFE is the transformation forecasting error (paper Eq. 2).
func TFE(transformed, baseline float64) (float64, error) { return stats.TFE(transformed, baseline) }

// ExtractFeatures computes the 40+ time series characteristics the paper
// analyses, with the given dominant seasonal period.
func ExtractFeatures(values []float64, period int) (FeatureVector, error) {
	return features.Extract(values, features.Options{Period: period})
}

// DriftReport summarises key-characteristic drift between raw and
// decompressed data with the paper's §4.3.3 alert thresholds.
type DriftReport = features.DriftReport

// CheckDrift compares the paper's five key monitoring indicators between a
// raw series and its decompressed counterpart.
func CheckDrift(raw, decompressed []float64, period int) (*DriftReport, error) {
	return features.CheckDrift(raw, decompressed, period)
}

// Evaluation harness (Algorithm 1 and the experiment grid).
type (
	// EvalOptions configures a full evaluation run. Its Parallelism field
	// bounds the harness's worker pools (0 = NumCPU, 1 = sequential);
	// results are bit-identical at every setting. Its Store field names a
	// cell-addressed result store: every finished cell is checkpointed
	// there, an interrupted run resumes where it stopped, and a grown grid
	// recomputes only its delta — again bit-identical, so neither field
	// participates in grid memoisation.
	EvalOptions = core.Options
	// GridResult is the memoised output of the full evaluation grid.
	GridResult = core.GridResult
	// GridProvenance records how a GridResult came to be — computed, loaded
	// from a store, or a resumed mix — with the cell counts of each, so
	// consumers never misread a loaded grid's zero timings as a measurement.
	GridProvenance = core.Provenance
	// GridStoreInfo summarises a result store file (InspectGridStore).
	GridStoreInfo = core.StoreInfo
	// ReportTable is an aligned text table produced by the experiments.
	ReportTable = core.Table
)

// DefaultEvalOptions is the paper's grid at laptop scale.
func DefaultEvalOptions() EvalOptions { return core.DefaultOptions() }

// PaperEvalOptions is the full-scale configuration of §3 (long runtime).
func PaperEvalOptions() EvalOptions { return core.PaperOptions() }

// RunGrid executes (and memoises) the paper's evaluation scenario.
// Datasets and (model, seed) training units are evaluated concurrently up
// to opts.Parallelism workers, with per-cell transforms cached and results
// merged in a fixed order, so the output is deterministic and bit-identical
// to a sequential run. GridResult.Timings reports per-phase wall clock.
func RunGrid(opts EvalOptions) (*GridResult, error) { return core.RunGrid(opts) }

// RunGridContext is RunGrid under a cancellation context: the engine checks
// ctx at stage, grid-cell, and training-epoch boundaries, returns ctx.Err()
// promptly once cancelled, and never memoises a partial result.
func RunGridContext(ctx context.Context, opts EvalOptions) (*GridResult, error) {
	return core.RunGridContext(ctx, opts)
}

// ResetGridCache clears RunGrid's in-process memoisation cache, forcing the
// next call to recompute (test and benchmark hook).
func ResetGridCache() { core.ResetGridCache() }

// SaveGrid persists an evaluation grid as a cell-addressed result store —
// one compressed record per grid cell, reconstructions encoded with the
// repo's lossless Gorilla codec — so expensive runs can be reused across
// processes. Saving the same grid twice produces byte-identical files.
func SaveGrid(g *GridResult, path string) error { return core.SaveGrid(g, path) }

// LoadGrid reads a saved grid — a store written by SaveGrid, a finished
// checkpoint store from EvalOptions.Store, or a legacy gzip-JSON grid
// file — and registers it in the in-process cache. The loaded grid's
// Provenance says where its cells came from.
func LoadGrid(path string) (*GridResult, error) { return core.LoadGrid(path) }

// InspectGridStore summarises a result store file without assembling the
// grid: which option signatures it holds, cell counts per dataset, and
// whether it records a completed (loadable) run.
func InspectGridStore(path string) (GridStoreInfo, error) { return core.InspectStore(path) }

// Distributed work plane: the grid as a partitionable job. Workers share
// nothing but the filesystem — each runs one deterministic slice of the
// cell space against its own journal, and the journals merge into one
// canonical store byte-for-byte interchangeable with a single-process run's.
type (
	// GridWorkerSummary is a partition run's machine-readable provenance:
	// cells owned, stolen, computed, and loaded, plus wall clock.
	GridWorkerSummary = core.WorkerSummary
	// GridMergeStats summarises a MergeGridStores call (sources, records,
	// and any conflicting keys).
	GridMergeStats = cellstore.MergeStats
)

// RunGridPartition evaluates partition index of workers (0-based) of the
// grid opts describes, checkpointing into opts.Store (the worker's own
// journal; required). When peers lists sibling journals, the worker makes
// one steal pass after its slice drains, computing whatever no peer has
// claimed or checkpointed. Partitioning is deterministic: every process
// enumerating the same options computes the same split.
func RunGridPartition(opts EvalOptions, workers, index int, peers []string) (GridWorkerSummary, error) {
	return core.RunGridPartition(opts, workers, index, peers)
}

// MergeGridStores combines per-worker journals into one canonical store at
// dst and stamps it with the worker count, so the merged grid's Provenance
// reports "merged from N worker journals". Worker journals for the same
// option set hold bit-identical records for shared keys; any payload
// conflict is an error, not a silent overwrite.
func MergeGridStores(dst string, workers []string) (GridMergeStats, error) {
	return core.MergeWorkerStores(dst, workers)
}

// Recommendation is a concrete compression operating point.
type Recommendation = core.Recommendation

// Recommend returns the method and error bound with the highest CR whose
// mean TFE stays within maxTFE on the evaluated grid.
func Recommend(g *GridResult, dataset string, maxTFE float64, models []string) (Recommendation, error) {
	return core.Recommend(g, dataset, maxTFE, models)
}

// Impact prediction (the §5 research direction: predict TFE from
// compression characteristics without running a forecaster).
type (
	// ImpactObservation is one (compression outcome, TFE) instance.
	ImpactObservation = impact.Observation
	// ImpactPredictor predicts TFE from compression characteristics and
	// explains predictions with exact TreeSHAP.
	ImpactPredictor = impact.Predictor
)

// TrainImpactPredictor fits a TFE predictor on observations, e.g. those
// returned by ImpactObservationsFromGrid.
func TrainImpactPredictor(obs []ImpactObservation) (*ImpactPredictor, error) {
	return impact.Train(obs)
}

// ImpactObservationsFromGrid converts a completed evaluation grid into
// impact-predictor training data.
func ImpactObservationsFromGrid(g *GridResult) ([]ImpactObservation, error) {
	return impact.ObservationsFromGrid(g)
}

// Anomaly detection (the §5 "other analytics" direction).

// AnomalyDetector flags points whose seasonal residual exceeds a robust
// z-score threshold.
type AnomalyDetector = anomaly.Detector

// InjectSpikes adds n ground-truth spikes for detection studies.
func InjectSpikes(values []float64, n int, magnitude float64, seed int64) ([]float64, []int) {
	return anomaly.InjectSpikes(values, n, magnitude, seed)
}

// ScoreDetections compares detections to ground truth with a position
// tolerance and returns precision, recall, and F1.
func ScoreDetections(detected, truth []int, tolerance int) (precision, recall, f1 float64) {
	return anomaly.Score(detected, truth, tolerance)
}

// Online execution plane (cmd/tsmonitor is the daemon): a continuous,
// drift-aware monitoring session over a chunked stream — ingest → inject →
// compress → reconstruct → monitor → update → score — with per-tick
// checkpointing into a cell store, so a killed monitor resumes from its
// last complete tick and reproduces the uninterrupted run byte for byte.
type (
	// SessionOptions configures one monitoring session (dataset, lossy
	// channel, model, monitors, injection, checkpoint store).
	SessionOptions = core.SessionOptions
	// Session drives the online loop; Run streams, Replay re-executes the
	// same session offline from the batch-loaded dataset (byte-identical).
	Session = core.Session
	// SessionReport is a session's deterministic outcome: the alert event
	// log plus compression, forecast, drift-delay, and anomaly-F1 metrics.
	SessionReport = core.SessionReport
	// MonitorEvent is one alert or lifecycle event, stamped with the global
	// stream index at which it was detected.
	MonitorEvent = core.MonitorEvent
	// MonitorBenchResult is a merged (method × bound) session sweep — the
	// BENCH_monitor.json shape.
	MonitorBenchResult = core.MonitorBench
	// IncrementalModel is a forecaster that continues training from its
	// current weights as new data arrives (warm-start Fit + Update).
	IncrementalModel = forecast.IncrementalFitter
)

// NewSession validates opts and builds a monitoring session.
func NewSession(opts SessionOptions) (*Session, error) { return core.NewSession(opts) }

// MonitorSweep runs one session per (method, bound) pair — cells
// parallelise up to parallelism workers and merge in a fixed order, so the
// result is identical at every setting.
func MonitorSweep(ctx context.Context, opts SessionOptions, methods []Method, bounds []float64, parallelism int) (*MonitorBenchResult, error) {
	return core.MonitorSweep(ctx, opts, methods, bounds, parallelism)
}

// RegisterIncrementalModel is RegisterModel for models implementing
// IncrementalModel: it flags the registration so online sessions accept the
// model. Constructed models must actually implement IncrementalModel —
// NewSession checks at session construction.
func RegisterIncrementalModel(r ModelRegistration) {
	r.Incremental = true
	forecast.Register(r)
}

// IsIncrementalModel reports whether a registered model supports online
// updates (all seven built-ins do).
func IsIncrementalModel(name string) bool { return forecast.IsIncremental(name) }

// Serving plane: an embeddable HTTP server (cmd/tsserve is the daemon)
// exposing /v1/compress, /v1/decompress, /v1/forecast, and /v1/recommend.
// Request bodies stream through the chunked data plane under a per-request
// memory cap, computations are cancelled when clients disconnect, and
// results dedupe through a shared cell store behind a singleflight layer.
type (
	// ServeOptions configures an embedded Server.
	ServeOptions = serve.Options
	// ServeStats is a snapshot of a Server's request counters.
	ServeStats = serve.Stats
	// Server answers the /v1/ endpoints; mount Handler() on an http.Server.
	Server = serve.Server
)

// NewServer builds a serving-plane Server: it opens the durable cache store
// (single writer) and loads the optional grid store read-only.
func NewServer(opts ServeOptions) (*Server, error) { return serve.New(opts) }
