package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"lossyts/internal/anomaly"
	"lossyts/internal/compress"
	"lossyts/internal/core/cellstore"
	"lossyts/internal/datasets"
	"lossyts/internal/features"
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

// SessionOptions configures one continuous monitoring session: a single
// (dataset, method, error bound, model) stream driven through the
// ingest → inject → compress → reconstruct → monitor → update → score loop.
// Every field that can change the session's bytes is part of the session
// signature; Store and CheckpointEvery only control persistence and are
// excluded, exactly like Options.Store is for the batch grid.
type SessionOptions struct {
	// Dataset, Scale, Seed select the stream (datasets.StreamTarget).
	Dataset string
	Scale   float64
	Seed    int64
	// Method and Epsilon select the lossy channel the monitors watch
	// through.
	Method  compress.Method
	Epsilon float64
	// Model names the forecaster updated online ("" = monitors only).
	Model string
	// Forecast carries the model's window sizes and training budget; zero
	// values fall back to forecast.DefaultConfig.
	Forecast forecast.Config
	// ChunkSize is the tick granularity in points (0 = DefaultChunkSize).
	ChunkSize int
	// Period overrides the dataset's seasonal period (0 = dataset's).
	Period int

	// Warmup is the number of points before the scaler is fitted, the
	// injection σ is frozen, and the model's initial fit runs (0 selects
	// max(4·period, 40), raised to 3·(InputLen+Horizon) when a model is
	// set).
	Warmup int
	// UpdateEvery is the stride, in points, between incremental model
	// updates after the initial fit (0 = 4·period).
	UpdateEvery int

	// DriftEvery is the paired raw-vs-recon indicator check stride
	// (0 = period); ShiftK the shift monitor's threshold multiplier
	// (0 = 4); AnomalyThreshold the detector's robust z cut-off (0 = 5).
	DriftEvery       int
	ShiftK           float64
	AnomalyThreshold float64
	// Tolerance is the anomaly scoring position tolerance (0 = 2).
	Tolerance int

	// Spikes injects ground-truth anomalies after warmup: Spikes additive
	// spikes of SpikeMag warmup-σ (0 = 8σ). DriftAt > 0 injects a level
	// shift of DriftMag warmup-σ (0 = 6σ — comfortably above the shift
	// monitor's default 4σ₀ threshold, so a lossless channel always
	// detects it) starting at that fraction of the stream; it must land
	// after warmup.
	Spikes   int
	SpikeMag float64
	DriftAt  float64
	DriftMag float64

	// Store is a cellstore path for per-tick checkpoints ("" = off); a
	// killed session restarted with the same options and store resumes from
	// its last complete checkpoint. CheckpointEvery is the tick stride
	// between checkpoints (0 = every tick).
	Store           string
	CheckpointEvery int
}

// signature renders every result-determining field of the options — the
// session analogue of Options.gridSignature. Store and CheckpointEvery are
// cleared first: persistence never changes bytes.
func (o SessionOptions) signature() string {
	o.Store = ""
	o.CheckpointEvery = 0
	return fmt.Sprintf("sess%d;%+v", RecordSchema, o)
}

// stateRecordKey is the store key of the session's checkpoint record.
func (o SessionOptions) stateRecordKey() string {
	return "session|" + o.signature() + "|state"
}

// MonitorEvent is one alert or lifecycle event of a monitoring session,
// stamped with the global stream index and data timestamp at which it was
// detected.
type MonitorEvent struct {
	// Kind is one of "shift-level", "shift-variance", "indicator-drift",
	// "anomaly", "model-fit", "model-update".
	Kind string `json:"kind"`
	// Index is the global (0-based) stream index of the detection.
	Index int64 `json:"index"`
	// Time is the data timestamp of that index.
	Time int64 `json:"time"`
	// Detail carries kind-specific context (alert reasons, deltas).
	Detail string `json:"detail,omitempty"`
}

// SessionReport is the deterministic outcome of a session: the event log
// plus compression, forecasting, drift-detection, and anomaly-detection
// metrics. A streamed run, its offline replay, and a killed-and-resumed run
// all produce byte-identical reports.
type SessionReport struct {
	Dataset string          `json:"dataset"`
	Method  compress.Method `json:"method"`
	Epsilon float64         `json:"epsilon"`
	Model   string          `json:"model,omitempty"`
	Points  int64           `json:"points"`
	Ticks   int             `json:"ticks"`
	Period  int             `json:"period"`
	Warmup  int             `json:"warmup"`

	Events []MonitorEvent `json:"events"`

	// CompressionRatio is Σ per-chunk raw .gz bytes / Σ payload bytes; TE
	// is the transformation error NRMSE(raw, reconstructed) over the whole
	// stream.
	CompressionRatio float64 `json:"compression_ratio"`
	TE               float64 `json:"te"`

	// Prequential forecasting error: predictions issued online from the
	// reconstructed stream, scored against the raw stream as it arrives.
	ForecastRMSE   float64 `json:"forecast_rmse,omitempty"`
	ForecastNRMSE  float64 `json:"forecast_nrmse,omitempty"`
	ForecastPoints int64   `json:"forecast_points,omitempty"`

	// Anomaly detection vs the injected ground truth.
	TruthSpikes []int64 `json:"truth_spikes,omitempty"`
	Detected    []int64 `json:"detected,omitempty"`
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	F1          float64 `json:"f1"`

	// Drift detection vs the injected level shift. Indexes are −1 when not
	// injected / never detected.
	DriftInjectedAt int64 `json:"drift_injected_at"`
	DriftDetectedAt int64 `json:"drift_detected_at"`
	DriftDelay      int64 `json:"drift_delay"`
	FalseAlerts     int   `json:"false_alerts"`
	IndicatorAlerts int   `json:"indicator_alerts"`
}

// pendingForecast is a forecast issued online, waiting for its actuals.
type pendingForecast struct {
	Start int64     `json:"start"`
	Preds []float64 `json:"preds"` // raw domain
	Done  int       `json:"done"`
}

// sessionState is the complete serialisable state of a session between two
// ticks — what a checkpoint stores. Every float64 round-trips JSON
// bit-exactly, so a restored session continues identically.
type sessionState struct {
	Tick  int   `json:"tick"`
	Total int64 `json:"total"`

	Events []MonitorEvent `json:"events"`

	Drift features.DriftMonitorState  `json:"drift"`
	Shift features.ShiftMonitorState  `json:"shift"`
	Anom  anomaly.StreamDetectorState `json:"anom"`
	Recon timeseries.RingState        `json:"recon"`

	ScalerMean   float64 `json:"scaler_mean"`
	ScalerStd    float64 `json:"scaler_std"`
	ScalerFitted bool    `json:"scaler_fitted"`

	Sigma    float64   `json:"sigma"`
	SigmaSet bool      `json:"sigma_set"`
	Warmup   []float64 `json:"warmup_buf,omitempty"`

	ModelTrained bool                 `json:"model_trained"`
	LastUpdate   int64                `json:"last_update"`
	LastForecast int64                `json:"last_forecast"`
	Model        *forecast.ModelState `json:"model,omitempty"`
	FitTrain     []float64            `json:"fit_train,omitempty"` // last (scaled) fit window, for refit-on-resume
	FitVal       []float64            `json:"fit_val,omitempty"`
	Pending      []pendingForecast    `json:"pending,omitempty"`

	RawBytes  int64   `json:"raw_bytes"`
	CompBytes int64   `json:"comp_bytes"`
	SqErr     float64 `json:"sq_err"`
	ErrN      int64   `json:"err_n"`
	RawMin    float64 `json:"raw_min"`
	RawMax    float64 `json:"raw_max"`
	FSqErr    float64 `json:"f_sq_err"`
	FN        int64   `json:"f_n"`

	Detected        []int64 `json:"detected,omitempty"`
	DriftDetectedAt int64   `json:"drift_detected_at"`
	FalseAlerts     int     `json:"false_alerts"`
	IndicatorAlerts int     `json:"indicator_alerts"`
}

// Session drives the continuous monitoring loop. Construct with NewSession,
// then call Run (or its alias Replay) to tick over the dataset's chunks.
type Session struct {
	opts   SessionOptions
	period int
	warmup int
	n      int // total stream length in points
	start  int64
	interv int64

	comp compress.Compressor

	drift *features.DriftMonitor
	shift *features.ShiftMonitor
	anom  *anomaly.StreamDetector
	recon *timeseries.Ring

	scaler timeseries.StandardScaler

	spikePos   []int
	spikeDelta []float64
	driftPos   int64 // −1 when no drift injected

	model forecast.Model

	// st holds the counters, buffers and accumulators that a checkpoint
	// stores as they are. The monitors, scaler and model above own the
	// rest of the state; checkpoint snapshots them into its copy of st.
	st sessionState
}

// NewSession validates the options and builds the monitors. The stream
// itself is opened by Run or Replay.
func NewSession(opts SessionOptions) (*Session, error) {
	if opts.Scale <= 0 {
		opts.Scale = 0.03
	}
	spec, ok := datasets.SpecOf(opts.Dataset)
	if !ok {
		return nil, fmt.Errorf("core: unknown dataset %q", opts.Dataset)
	}
	period := opts.Period
	if period == 0 {
		period = spec.Period
	}
	if period < 2 {
		return nil, fmt.Errorf("core: session period %d must be at least 2", period)
	}
	opts.Period = period
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = timeseries.DefaultChunkSize
	}
	n := int(float64(spec.Length) * opts.Scale)
	if n < 1 {
		n = 1
	}
	warmup := opts.Warmup
	if warmup <= 0 {
		warmup = 4 * period
		if warmup < 40 {
			warmup = 40
		}
		if opts.Model != "" {
			cfg := sessionForecastConfig(opts)
			if min := 3 * (cfg.InputLen + cfg.Horizon); warmup < min {
				warmup = min
			}
		}
	}
	if warmup >= n {
		return nil, fmt.Errorf("core: warmup %d must be shorter than the stream (%d points)", warmup, n)
	}
	opts.Warmup = warmup

	s := &Session{
		opts:     opts,
		period:   period,
		warmup:   warmup,
		n:        n,
		driftPos: -1,
		st: sessionState{
			DriftDetectedAt: -1,
			RawMin:          math.Inf(1),
			RawMax:          math.Inf(-1),
			LastUpdate:      -1,
			LastForecast:    -1,
		},
	}

	comp, err := compress.New(opts.Method)
	if err != nil {
		return nil, err
	}
	s.comp = comp

	if s.drift, err = features.NewDriftMonitor(period, 0, opts.DriftEvery); err != nil {
		return nil, err
	}
	s.shift = features.NewShiftMonitor(period, opts.ShiftK)
	if s.anom, err = anomaly.NewStreamDetector(anomaly.Detector{Period: period, Threshold: opts.AnomalyThreshold}, 0); err != nil {
		return nil, err
	}
	s.recon = timeseries.NewRing(warmup)

	if opts.Spikes > 0 {
		s.spikePos, s.spikeDelta = anomaly.SpikePlan(n, opts.Spikes, 1, opts.Seed+1)
	}
	if opts.DriftAt > 0 {
		pos := int64(opts.DriftAt * float64(n))
		if pos <= int64(warmup) {
			return nil, fmt.Errorf("core: drift at point %d must land after warmup %d", pos, warmup)
		}
		if pos >= int64(n) {
			return nil, fmt.Errorf("core: drift fraction %v lands past the stream end", opts.DriftAt)
		}
		s.driftPos = pos
	}

	if opts.Model != "" {
		m, err := forecast.New(opts.Model, sessionForecastConfig(opts))
		if err != nil {
			return nil, err
		}
		if _, ok := m.(forecast.IncrementalFitter); !ok {
			return nil, fmt.Errorf("core: model %q does not implement forecast.IncrementalFitter", opts.Model)
		}
		s.model = m
	}
	return s, nil
}

// sessionForecastConfig resolves the session's forecast config field by
// field: each zero field takes forecast.DefaultConfig's value, except that
// a zero SeasonalPeriod takes the session's Period and a zero Seed its
// Seed. This differs from the batch harness (NewScenario), which replaces
// the whole config with DefaultConfig when InputLen is zero and otherwise
// keeps every field as given, zeros included.
func sessionForecastConfig(o SessionOptions) forecast.Config {
	cfg := o.Forecast
	def := forecast.DefaultConfig()
	if cfg.InputLen == 0 {
		cfg.InputLen = def.InputLen
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = def.Horizon
	}
	if cfg.SeasonalPeriod == 0 {
		cfg.SeasonalPeriod = o.Period
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.LR == 0 {
		cfg.LR = def.LR
	}
	if cfg.WeightDecay == 0 {
		cfg.WeightDecay = def.WeightDecay
	}
	if cfg.Patience == 0 {
		cfg.Patience = def.Patience
	}
	if cfg.Dropout == 0 {
		cfg.Dropout = def.Dropout
	}
	if cfg.HiddenSize == 0 {
		cfg.HiddenSize = def.HiddenSize
	}
	if cfg.MaxTrainWindows == 0 {
		cfg.MaxTrainWindows = def.MaxTrainWindows
	}
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Run executes the session over the dataset's target column in chunks of
// the session's chunk size (datasets.StreamTarget). With a Store, it first
// resumes from the latest checkpoint if one exists.
func (s *Session) Run(ctx context.Context) (*SessionReport, error) {
	ts, err := datasets.StreamTarget(s.opts.Dataset, s.opts.Scale, s.opts.Seed, s.opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	s.start, s.interv = ts.Start(), ts.Interval()
	rep, err := s.loop(ctx, ts.Next)
	if err != nil {
		return nil, err
	}
	if serr := ts.Err(); serr != nil {
		return nil, serr
	}
	return rep, nil
}

// Replay is Run: the offline replay and the live stream read the same
// source.
func (s *Session) Replay(ctx context.Context) (*SessionReport, error) { return s.Run(ctx) }

// loop is the session core: tick over chunks, checkpoint, report.
func (s *Session) loop(ctx context.Context, next func() (timeseries.Chunk, bool)) (*SessionReport, error) {
	var store *cellstore.Store
	if s.opts.Store != "" {
		var err error
		store, err = cellstore.Open(s.opts.Store)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if err := s.restore(store); err != nil {
			return nil, err
		}
	}
	ckEvery := s.opts.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 1
	}
	tick := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, ok := next()
		if !ok {
			break
		}
		tick++
		if tick <= s.st.Tick {
			continue // already absorbed before the checkpoint; regenerate and skip
		}
		if err := s.processChunk(ctx, c); err != nil {
			return nil, err
		}
		s.st.Tick = tick
		if store != nil && tick%ckEvery == 0 {
			if err := s.checkpoint(store); err != nil {
				return nil, err
			}
		}
	}
	// Flush the anomaly tail.
	idx, err := s.anom.Finish()
	if err != nil {
		return nil, err
	}
	s.noteAnomalies(idx)
	if store != nil {
		if err := s.checkpoint(store); err != nil {
			return nil, err
		}
	}
	return s.report(), nil
}

// processChunk runs one tick: inject → compress → reconstruct → monitor →
// update → score.
func (s *Session) processChunk(ctx context.Context, c timeseries.Chunk) error {
	// Inject ground truth into the raw chunk (copy: chunks may alias the
	// generator's buffers).
	raw := append([]float64(nil), c.Values...)
	base := s.st.Total
	for i := range raw {
		g := base + int64(i)
		if !s.st.SigmaSet && g < int64(s.warmup) {
			s.st.Warmup = append(s.st.Warmup, raw[i])
		}
		if !s.st.SigmaSet && g == int64(s.warmup) {
			s.freezeSigma()
		}
		if s.st.SigmaSet {
			if s.driftPos >= 0 && g >= s.driftPos {
				raw[i] += s.driftMagnitude() * s.st.Sigma
			}
			for k, p := range s.spikePos {
				if int64(p) == g && int64(p) >= int64(s.warmup) {
					raw[i] += s.spikeDelta[k] * s.spikeMagnitude() * s.st.Sigma
				}
			}
		}
	}
	// A stream whose warmup boundary falls exactly on a chunk seam freezes
	// σ at the start of the next chunk; handle end-of-warmup inside chunks
	// shorter than the boundary too.
	if !s.st.SigmaSet && s.st.Total+int64(len(raw)) >= int64(s.warmup) && len(s.st.Warmup) >= s.warmup {
		s.freezeSigma()
	}

	// Compress and reconstruct the injected chunk.
	series := timeseries.New(s.opts.Dataset, c.Start, c.Interval, raw)
	comp, err := s.comp.Compress(series, s.opts.Epsilon)
	if err != nil {
		return err
	}
	dec, err := comp.Decompress()
	if err != nil {
		return err
	}
	recon := dec.Values
	if len(recon) != len(raw) {
		return fmt.Errorf("core: chunk reconstructed %d of %d points", len(recon), len(raw))
	}
	rawGz, err := compress.RawGzipSize(series)
	if err != nil {
		return err
	}
	s.st.RawBytes += int64(rawGz)
	s.st.CompBytes += int64(comp.Size())

	// Transformation error and range accumulators.
	for i := range raw {
		d := raw[i] - recon[i]
		s.st.SqErr += d * d
		s.st.ErrN++
		if raw[i] < s.st.RawMin {
			s.st.RawMin = raw[i]
		}
		if raw[i] > s.st.RawMax {
			s.st.RawMax = raw[i]
		}
	}

	// Score pending forecasts against arriving raw values.
	s.scorePending(raw, base)

	// Monitors consume the reconstructed stream (the lossy channel the
	// paper's guideline watches), pointwise for the shift monitor so alert
	// indices are exact.
	for _, v := range recon {
		for _, a := range s.shift.Push(v) {
			s.noteShift(a)
		}
	}
	checks, err := s.drift.Push(raw, recon)
	if err != nil {
		return err
	}
	for _, ck := range checks {
		if ck.Report.Alert {
			s.st.IndicatorAlerts++
			s.addEvent("indicator-drift", ck.Index, strings.Join(ck.Report.Reasons, ","))
		}
	}
	idx, err := s.anom.Push(recon)
	if err != nil {
		return err
	}
	s.noteAnomalies(idx)

	for _, v := range recon {
		s.recon.Push(v)
	}
	s.st.Total += int64(len(raw))

	// Model lifecycle at tick boundaries.
	if s.model != nil {
		if err := s.modelStep(ctx); err != nil {
			return err
		}
	}
	return nil
}

// freezeSigma fits the scaler and injection σ on the warmup prefix.
func (s *Session) freezeSigma() {
	if len(s.st.Warmup) == 0 {
		return
	}
	_ = s.scaler.Fit(s.st.Warmup)
	s.st.Sigma = s.scaler.Std
	s.st.SigmaSet = true
	s.st.Warmup = nil
}

func (s *Session) spikeMagnitude() float64 {
	if s.opts.SpikeMag > 0 {
		return s.opts.SpikeMag
	}
	return 8
}

func (s *Session) driftMagnitude() float64 {
	if s.opts.DriftMag > 0 {
		return s.opts.DriftMag
	}
	return 6
}

// noteShift records a shift alert and updates drift-detection bookkeeping.
func (s *Session) noteShift(a features.ShiftAlert) {
	s.addEvent("shift-"+a.Kind, a.Index, fmt.Sprintf("delta=%g threshold=%g", a.Delta, a.Threshold))
	if a.Kind != "level" {
		return
	}
	if s.driftPos >= 0 && a.Index >= s.driftPos {
		if s.st.DriftDetectedAt < 0 {
			s.st.DriftDetectedAt = a.Index
		}
	} else {
		s.st.FalseAlerts++
	}
}

func (s *Session) noteAnomalies(idx []int64) {
	for _, g := range idx {
		s.st.Detected = append(s.st.Detected, g)
		s.addEvent("anomaly", g, "")
	}
}

func (s *Session) addEvent(kind string, index int64, detail string) {
	s.st.Events = append(s.st.Events, MonitorEvent{
		Kind:   kind,
		Index:  index,
		Time:   s.start + index*s.interv,
		Detail: detail,
	})
}

// modelStep fits, updates, and issues forecasts at tick boundaries.
func (s *Session) modelStep(ctx context.Context) error {
	cfg := sessionForecastConfig(s.opts)
	fitter := s.model.(forecast.IncrementalFitter)
	if !s.st.ModelTrained {
		if s.st.Total < int64(s.warmup) || !s.st.SigmaSet {
			return nil
		}
		train, val := s.trainWindow()
		if err := fitter.Fit(train, val); err != nil {
			return err
		}
		s.st.ModelTrained = true
		s.st.LastUpdate = s.st.Total
		s.st.FitTrain, s.st.FitVal = train, val
		s.addEvent("model-fit", s.st.Total-1, fmt.Sprintf("points=%d", len(train)+len(val)))
	} else if s.st.Total-s.st.LastUpdate >= int64(s.updateEvery()) {
		train, val := s.trainWindow()
		if err := fitter.Update(ctx, train, val); err != nil {
			return err
		}
		s.st.LastUpdate = s.st.Total
		s.st.FitTrain, s.st.FitVal = train, val
		s.addEvent("model-update", s.st.Total-1, fmt.Sprintf("points=%d", len(train)+len(val)))
	}
	// Issue a forecast for the next Horizon points when the previous one
	// has run its course.
	if s.st.ModelTrained && s.recon.Len() >= cfg.InputLen &&
		(s.st.LastForecast < 0 || s.st.Total-s.st.LastForecast >= int64(cfg.Horizon)) {
		window := s.recon.CopyTo(nil)
		in := s.scaler.Transform(window[len(window)-cfg.InputLen:])
		preds, err := s.model.Predict([][]float64{in})
		if err != nil {
			return err
		}
		s.st.Pending = append(s.st.Pending, pendingForecast{
			Start: s.st.Total,
			Preds: s.scaler.Inverse(preds[0]),
		})
		s.st.LastForecast = s.st.Total
	}
	return nil
}

func (s *Session) updateEvery() int {
	if s.opts.UpdateEvery > 0 {
		return s.opts.UpdateEvery
	}
	return 4 * s.period
}

// trainWindow returns the scaled train/val split (80/20) of the recon
// window.
func (s *Session) trainWindow() (train, val []float64) {
	window := s.scaler.Transform(s.recon.CopyTo(nil))
	cut := len(window) - len(window)/5
	return window[:cut], window[cut:]
}

// scorePending folds newly arrived raw values into outstanding forecasts.
func (s *Session) scorePending(raw []float64, base int64) {
	kept := s.st.Pending[:0]
	for _, p := range s.st.Pending {
		for p.Done < len(p.Preds) {
			g := p.Start + int64(p.Done)
			i := g - base
			if i < 0 || i >= int64(len(raw)) {
				break
			}
			d := p.Preds[p.Done] - raw[i]
			s.st.FSqErr += d * d
			s.st.FN++
			p.Done++
		}
		if p.Done < len(p.Preds) {
			kept = append(kept, p)
		}
	}
	s.st.Pending = kept
}

// report assembles the final SessionReport from the session state.
func (s *Session) report() *SessionReport {
	rep := &SessionReport{
		Dataset:         s.opts.Dataset,
		Method:          s.opts.Method,
		Epsilon:         s.opts.Epsilon,
		Model:           s.opts.Model,
		Points:          s.st.Total,
		Ticks:           s.st.Tick,
		Period:          s.period,
		Warmup:          s.warmup,
		Events:          s.st.Events,
		DriftInjectedAt: s.driftPos,
		DriftDetectedAt: s.st.DriftDetectedAt,
		DriftDelay:      -1,
		FalseAlerts:     s.st.FalseAlerts,
		IndicatorAlerts: s.st.IndicatorAlerts,
		Detected:        s.st.Detected,
	}
	if rep.Events == nil {
		rep.Events = []MonitorEvent{}
	}
	if s.st.CompBytes > 0 {
		rep.CompressionRatio = float64(s.st.RawBytes) / float64(s.st.CompBytes)
	}
	if s.st.ErrN > 0 && s.st.RawMax > s.st.RawMin {
		rep.TE = math.Sqrt(s.st.SqErr/float64(s.st.ErrN)) / (s.st.RawMax - s.st.RawMin)
	}
	if s.st.FN > 0 {
		rep.ForecastRMSE = math.Sqrt(s.st.FSqErr / float64(s.st.FN))
		if s.st.RawMax > s.st.RawMin {
			rep.ForecastNRMSE = rep.ForecastRMSE / (s.st.RawMax - s.st.RawMin)
		}
		rep.ForecastPoints = s.st.FN
	}
	if s.driftPos >= 0 && s.st.DriftDetectedAt >= 0 {
		rep.DriftDelay = s.st.DriftDetectedAt - s.driftPos
	}
	// Anomaly scoring vs injected truth.
	var truth []int
	for _, p := range s.spikePos {
		if p >= s.warmup {
			truth = append(truth, p)
			rep.TruthSpikes = append(rep.TruthSpikes, int64(p))
		}
	}
	det := make([]int, len(s.st.Detected))
	for i, g := range s.st.Detected {
		det[i] = int(g)
	}
	tol := s.opts.Tolerance
	if tol <= 0 {
		tol = 2
	}
	rep.Precision, rep.Recall, rep.F1 = anomaly.Score(det, truth, tol)
	return rep
}

// checkpoint writes the full session state to the store.
func (s *Session) checkpoint(store *cellstore.Store) error {
	st := s.st
	st.Drift, st.Shift, st.Anom, st.Recon = s.drift.State(), s.shift.State(), s.anom.State(), s.recon.State()
	st.ScalerMean, st.ScalerStd, st.ScalerFitted = s.scaler.Mean, s.scaler.Std, s.scaler.Fitted()
	// ±Inf cannot cross JSON; the range accumulator is empty only before
	// the first chunk.
	if math.IsInf(st.RawMin, 0) {
		st.RawMin, st.RawMax = 0, 0
		if st.ErrN != 0 {
			return fmt.Errorf("core: non-finite range with %d scored points", st.ErrN)
		}
	}
	st.Model = nil
	if sn, ok := s.model.(forecast.Snapshotter); ok && st.ModelTrained {
		ms := sn.StateSnapshot()
		st.Model = &ms
	}
	payload, err := marshalRecord(st)
	if err != nil {
		return err
	}
	return store.Put(s.opts.stateRecordKey(), payload)
}

// restore loads the latest checkpoint, if any, and rebuilds all live state.
func (s *Session) restore(store *cellstore.Store) error {
	payload, ok := store.Get(s.opts.stateRecordKey())
	if !ok {
		return nil
	}
	var st sessionState
	err := unmarshalRecord(payload, &st)
	if err != nil {
		return fmt.Errorf("core: session checkpoint: %w", err)
	}
	if s.drift, err = features.DriftMonitorFromState(st.Drift); err != nil {
		return err
	}
	if s.shift, err = features.ShiftMonitorFromState(st.Shift); err != nil {
		return err
	}
	if s.anom, err = anomaly.StreamDetectorFromState(st.Anom); err != nil {
		return err
	}
	if s.recon, err = timeseries.RingFromState(st.Recon); err != nil {
		return err
	}
	s.scaler = timeseries.StandardScaler{Mean: st.ScalerMean, Std: st.ScalerStd}
	if st.ScalerFitted {
		// Re-fit on a singleton to set the unexported fitted flag, then
		// restore the exact moments.
		_ = s.scaler.Fit([]float64{0})
		s.scaler.Mean, s.scaler.Std = st.ScalerMean, st.ScalerStd
	}
	if s.model != nil && st.ModelTrained {
		if sn, ok := s.model.(forecast.Snapshotter); ok {
			if st.Model == nil {
				return fmt.Errorf("core: checkpoint for %s lacks model state", s.opts.Model)
			}
			if err := sn.RestoreState(*st.Model); err != nil {
				return err
			}
		} else {
			// Refit-path models: rebuild by fitting the checkpointed window
			// — deterministic, so the restored model matches the original.
			if err := s.model.Fit(st.FitTrain, st.FitVal); err != nil {
				return err
			}
		}
	}
	if st.ErrN == 0 {
		st.RawMin, st.RawMax = math.Inf(1), math.Inf(-1)
	}
	s.st = st
	return nil
}
