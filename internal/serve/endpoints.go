package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// seriesParams is the (start, interval) geometry every value-body endpoint
// shares. The bounds mirror the payload header fields (32-bit start, 16-bit
// interval), so a request that compresses cleanly can always be re-encoded.
type seriesParams struct {
	start    int64
	interval int64
}

func readSeriesParams(r *http.Request) (seriesParams, error) {
	start, err := intParam(r, "start", 0)
	if err != nil {
		return seriesParams{}, err
	}
	interval, err := intParam(r, "interval", 60)
	if err != nil {
		return seriesParams{}, err
	}
	if start < 0 || start > math.MaxUint32 {
		return seriesParams{}, badRequest("parameter start: %d outside the 32-bit timestamp range", start)
	}
	if interval < 1 || interval > math.MaxUint16 {
		return seriesParams{}, badRequest("parameter interval: %d outside [1, %d]", interval, math.MaxUint16)
	}
	return seriesParams{start: start, interval: interval}, nil
}

// methodParam resolves the method query parameter against the compressor
// registry; unknown names surface the registry's typed *UnknownMethodError
// (→ 400).
func methodParam(r *http.Request) (compress.Method, compress.Compressor, error) {
	name := r.URL.Query().Get("method")
	if name == "" {
		return "", nil, badRequest("parameter method is required (registered: %v)", compress.Registered())
	}
	m := compress.Method(name)
	comp, err := compress.New(m)
	if err != nil {
		return "", nil, err
	}
	return m, comp, nil
}

// compressRecord is the cached form of one compression result — everything
// the response (headers + binary payload) is rebuilt from, whether the
// record was computed just now or read back from the store.
type compressRecord struct {
	Method   compress.Method `json:"method"`
	Epsilon  float64         `json:"epsilon"`
	N        int             `json:"n"`
	Segments int             `json:"segments"`
	Start    int64           `json:"start"`
	Interval int64           `json:"interval"`
	Payload  []byte          `json:"payload"`
}

// newEncoder returns a streaming encoder for m, falling back to the
// buffered adapter for registered methods without an incremental kernel.
func newEncoder(m compress.Method, comp compress.Compressor, sp seriesParams, eps float64) (*compress.StreamEncoder, error) {
	enc, err := compress.NewStreamEncoderAt(m, sp.start, sp.interval, eps)
	if err == nil {
		return enc, nil
	}
	return compress.NewBufferedStreamEncoder(comp, sp.start, sp.interval, eps)
}

// handleCompress implements POST /v1/compress?method=&eps=&start=&interval=.
// The body is a stream of numbers; the response body is the compressed
// payload (the same bytes batch compression would produce), with the
// metadata in X-Lossyts-* headers.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	m, comp, err := methodParam(r)
	if err != nil {
		return err
	}
	eps, err := floatParam(r, "eps", 0.1)
	if err != nil {
		return err
	}
	if eps < 0 {
		return badRequest("parameter eps: negative error bound %v", eps)
	}
	sp, err := readSeriesParams(r)
	if err != nil {
		return err
	}
	rh := newRequestHash("compress")
	rh.param("method", m)
	rh.param("eps", eps)
	rh.param("start", sp.start)
	rh.param("interval", sp.interval)
	values, err := readValues(ctx, r.Body, rh, s.opts.ChunkSize)
	if err != nil {
		return err
	}
	out, err := s.cached(ctx, w, rh.key(), func() ([]byte, error) {
		enc, err := newEncoder(m, comp, sp, eps)
		if err != nil {
			return nil, err
		}
		defer enc.Release()
		if err := chunksOf(ctx, values, sp.start, sp.interval, s.opts.ChunkSize, enc.PushChunk); err != nil {
			return nil, err
		}
		// Close into a pooled request buffer; the payload aliases it, and
		// json.Marshal copies, so the buffer goes straight back to the pool.
		buf := compress.GetBytes(4096)
		c, err := enc.CloseAppend(buf)
		if err != nil {
			compress.PutBytes(buf)
			return nil, err
		}
		rec, err := json.Marshal(compressRecord{
			Method: c.Method, Epsilon: c.Epsilon, N: c.N, Segments: c.Segments,
			Start: sp.start, Interval: sp.interval, Payload: c.Payload,
		})
		compress.PutBytes(c.Payload)
		return rec, err
	})
	if err != nil {
		return err
	}
	var rec compressRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Lossyts-Method", string(rec.Method))
	h.Set("X-Lossyts-Epsilon", strconv.FormatFloat(rec.Epsilon, 'g', -1, 64))
	h.Set("X-Lossyts-Points", strconv.Itoa(rec.N))
	h.Set("X-Lossyts-Segments", strconv.Itoa(rec.Segments))
	h.Set("X-Lossyts-Start", strconv.FormatInt(rec.Start, 10))
	h.Set("X-Lossyts-Interval", strconv.FormatInt(rec.Interval, 10))
	_, err = w.Write(rec.Payload)
	return err
}

// handleDecompress implements POST /v1/decompress?method=&chunk=. The body
// is a compressed payload (as /v1/compress returned it); the response
// streams the reconstructed values as text, one per line, chunk by chunk —
// the response never materialises the full series.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	m, _, err := methodParam(r)
	if err != nil {
		return err
	}
	chunk, err := intParam(r, "chunk", int64(s.opts.ChunkSize))
	if err != nil {
		return err
	}
	body, err := readRaw(r.Body)
	if err != nil {
		return err
	}
	dec, err := compress.NewStreamDecoder(&compress.Compressed{Method: m, Payload: body}, int(chunk))
	if err != nil {
		return badRequest("invalid payload: %v", err)
	}
	defer dec.Release()
	s.computations.Add(1)
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Lossyts-Points", strconv.Itoa(dec.Len()))
	h.Set("X-Lossyts-Start", strconv.FormatInt(dec.Start(), 10))
	h.Set("X-Lossyts-Interval", strconv.FormatInt(dec.Interval(), 10))
	bw := bufio.NewWriter(w)
	var line []byte
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, ok := dec.Next()
		if !ok {
			break
		}
		for _, v := range c.Values {
			line = strconv.AppendFloat(line[:0], v, 'g', -1, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	if err := dec.Err(); err != nil {
		// The status line is long gone; terminate the body with an explicit
		// error marker so a consumer never mistakes a truncated stream for a
		// complete one.
		fmt.Fprintf(bw, "# decode error: %v\n", err)
	}
	return bw.Flush()
}

// metricsJSON renders stats.Metrics with stable lowercase keys.
type metricsJSON struct {
	R     float64 `json:"r"`
	RSE   float64 `json:"rse"`
	RMSE  float64 `json:"rmse"`
	NRMSE float64 `json:"nrmse"`
}

func toMetricsJSON(m stats.Metrics) metricsJSON {
	return metricsJSON{R: m.R, RSE: m.RSE, RMSE: m.RMSE, NRMSE: m.NRMSE}
}

// forecastResponse is /v1/forecast's JSON body: the model's accuracy on the
// raw series, and — when a compression operating point was given — the
// compression outcome and the forecast impact (the paper's TFE, Eq. 2) of
// training-data-faithful forecasts over the reconstructed inputs.
type forecastResponse struct {
	Model   string `json:"model"`
	N       int    `json:"n"`
	Input   int    `json:"input"`
	Horizon int    `json:"horizon"`
	Windows int    `json:"windows"`

	Baseline metricsJSON `json:"baseline"`

	Method      compress.Method `json:"method,omitempty"`
	Epsilon     float64         `json:"epsilon,omitempty"`
	CR          float64         `json:"cr,omitempty"`
	TE          *metricsJSON    `json:"te,omitempty"`
	Transformed *metricsJSON    `json:"transformed,omitempty"`
	TFE         *float64        `json:"tfe,omitempty"`
}

// handleForecast implements POST /v1/forecast?model=&method=&eps=&... —
// one grid cell, on the client's own series, as a request: split the series
// as the paper does (70/10/20), train the model on the raw training data,
// and score forecasts over raw and (optionally) reconstructed test inputs.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	modelName := r.URL.Query().Get("model")
	if modelName == "" {
		return badRequest("parameter model is required (registered: %v)", forecast.Registered())
	}
	cfg := s.opts.Forecast
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"input", &cfg.InputLen},
		{"horizon", &cfg.Horizon},
		{"period", &cfg.SeasonalPeriod},
		{"epochs", &cfg.Epochs},
	} {
		v, err := intParam(r, p.name, int64(*p.dst))
		if err != nil {
			return err
		}
		if v < 0 {
			return badRequest("parameter %s: must be non-negative", p.name)
		}
		*p.dst = int(v)
	}
	seed, err := intParam(r, "seed", cfg.Seed)
	if err != nil {
		return err
	}
	cfg.Seed = seed
	// Resolve the model now so an unknown name is a typed 400 before any
	// body is read or any training happens.
	if _, err := forecast.New(modelName, cfg); err != nil {
		return err
	}
	var (
		method compress.Method
		comp   compress.Compressor
	)
	if r.URL.Query().Get("method") != "" {
		if method, comp, err = methodParam(r); err != nil {
			return err
		}
	}
	eps, err := floatParam(r, "eps", 0.1)
	if err != nil {
		return err
	}
	if eps < 0 {
		return badRequest("parameter eps: negative error bound %v", eps)
	}
	sp, err := readSeriesParams(r)
	if err != nil {
		return err
	}

	rh := newRequestHash("forecast")
	rh.param("model", modelName)
	rh.param("cfg", cfg)
	rh.param("method", method)
	rh.param("eps", eps)
	rh.param("start", sp.start)
	rh.param("interval", sp.interval)
	values, err := readValues(ctx, r.Body, rh, s.opts.ChunkSize)
	if err != nil {
		return err
	}

	out, err := s.cached(ctx, w, rh.key(), func() ([]byte, error) {
		return s.computeForecast(ctx, modelName, cfg, method, comp, eps, sp, values)
	})
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(out)
	return err
}

// computeForecast is the expensive heart of /v1/forecast — the part the
// cache and singleflight layers protect.
func (s *Server) computeForecast(ctx context.Context, modelName string, cfg forecast.Config, method compress.Method, comp compress.Compressor, eps float64, sp seriesParams, values []float64) ([]byte, error) {
	series := timeseries.New("request", sp.start, sp.interval, values)
	// Every error building the scenario is the request's: a series too
	// short to split, to window, or to scale.
	sc, err := core.NewScenario(series, cfg.SeasonalPeriod, cfg, 0)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	model, err := sc.Fit(ctx, modelName, cfg.Seed, nil, nil)
	if err != nil {
		return nil, err
	}
	rawWindows, err := sc.Windows(nil)
	if err != nil {
		return nil, err
	}
	base, err := sc.Score(model, rawWindows)
	if err != nil {
		return nil, err
	}
	test := sc.Test
	resp := forecastResponse{
		Model:    modelName,
		N:        series.Len(),
		Input:    cfg.InputLen,
		Horizon:  cfg.Horizon,
		Windows:  len(rawWindows.Windows),
		Baseline: toMetricsJSON(base),
	}
	if method != "" {
		// The compression leg runs through the chunked plane — identical
		// bytes to batch compression, bounded codec state.
		enc, err := newEncoder(method, comp, seriesParams{start: test.Start, interval: test.Interval}, eps)
		if err != nil {
			return nil, err
		}
		if err := chunksOf(ctx, test.Values, test.Start, test.Interval, s.opts.ChunkSize, enc.PushChunk); err != nil {
			return nil, err
		}
		buf := compress.GetBytes(4096)
		c, err := enc.CloseAppend(buf)
		if err != nil {
			compress.PutBytes(buf)
			return nil, err
		}
		cr, err := compress.Ratio(test, c)
		if err != nil {
			return nil, err
		}
		sdec, err := compress.NewStreamDecoder(c, s.opts.ChunkSize)
		if err != nil {
			return nil, err
		}
		// The decoder gunzipped the payload into its own buffer, so the
		// request-scoped payload buffer and the kernel scratch go back now.
		compress.PutBytes(c.Payload)
		enc.Release()
		dec, err := timeseries.Collect("reconstructed", sdec)
		sdec.Release()
		if err != nil {
			return nil, err
		}
		te, err := stats.Evaluate(test.Values, dec.Values)
		if err != nil {
			return nil, err
		}
		tm, err := sc.Evaluate(model, dec.Values)
		if err != nil {
			return nil, err
		}
		resp.Method = method
		resp.Epsilon = c.Epsilon
		resp.CR = cr
		teJSON := toMetricsJSON(te)
		tmJSON := toMetricsJSON(tm)
		resp.TE = &teJSON
		resp.Transformed = &tmJSON
		if tfe, err := stats.TFE(tm.NRMSE, base.NRMSE); err == nil {
			resp.TFE = &tfe
		}
	}
	return json.Marshal(resp)
}

// recommendCandidate is one (method, bound) operating point of a series
// sweep.
type recommendCandidate struct {
	Method  compress.Method `json:"method"`
	Epsilon float64         `json:"epsilon"`
	CR      float64         `json:"cr"`
	TENRMSE float64         `json:"te_nrmse"`
	OK      bool            `json:"ok"` // within the TE tolerance
}

// recommendResponse is /v1/recommend's JSON body, for both modes.
type recommendResponse struct {
	Source string `json:"source"` // "series" or "grid"
	Found  bool   `json:"found"`

	// Series mode.
	MaxTE      float64              `json:"maxte,omitempty"`
	Candidates []recommendCandidate `json:"candidates,omitempty"`

	// Grid mode.
	Dataset string  `json:"dataset,omitempty"`
	MaxTFE  float64 `json:"maxtfe,omitempty"`
	TFE     float64 `json:"tfe,omitempty"`

	Method  compress.Method `json:"method,omitempty"`
	Epsilon float64         `json:"epsilon"`
	CR      float64         `json:"cr,omitempty"`
	TE      float64         `json:"te,omitempty"`
}

// handleRecommend implements POST /v1/recommend. Two modes:
//
//   - ?dataset=&maxtfe= — answer from the precomputed evaluation grid
//     (core.Recommend over the read-only grid store): the paper's full
//     TFE-aware recommendation, served in microseconds.
//   - body of values, ?maxte= — sweep methods × error bounds over the
//     client's own series and return the highest-CR point whose
//     reconstruction error (NRMSE) stays within the tolerance. No model
//     training; this is the compression-side recommendation.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	if dataset := r.URL.Query().Get("dataset"); dataset != "" {
		return s.recommendFromGrid(w, r, dataset)
	}
	maxTE, err := floatParam(r, "maxte", 0.05)
	if err != nil {
		return err
	}
	sp, err := readSeriesParams(r)
	if err != nil {
		return err
	}
	// Default to every registered parameter-free lossy codec — the registry
	// is the source of truth, so a newly landed codec (CAMEO, LFZip, or an
	// external registration) is recommendable without touching this handler.
	methods := compress.LossyMethods()
	if raw := r.URL.Query().Get("methods"); raw != "" {
		methods = nil
		for _, name := range strings.Split(raw, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			m := compress.Method(name)
			if _, err := compress.New(m); err != nil {
				return err
			}
			methods = append(methods, m)
		}
		if len(methods) == 0 {
			return badRequest("parameter methods: empty list")
		}
	}
	bounds := compress.ErrorBounds
	if raw := r.URL.Query().Get("bounds"); raw != "" {
		bounds = nil
		for _, tok := range strings.Split(raw, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil || v < 0 {
				return badRequest("parameter bounds: %q is not a non-negative number", tok)
			}
			bounds = append(bounds, v)
		}
		if len(bounds) == 0 {
			return badRequest("parameter bounds: empty list")
		}
	}

	rh := newRequestHash("recommend")
	rh.param("maxte", maxTE)
	rh.param("methods", methods)
	rh.param("bounds", bounds)
	rh.param("start", sp.start)
	rh.param("interval", sp.interval)
	values, err := readValues(ctx, r.Body, rh, s.opts.ChunkSize)
	if err != nil {
		return err
	}
	out, err := s.cached(ctx, w, rh.key(), func() ([]byte, error) {
		return computeRecommend(ctx, maxTE, methods, bounds, sp, values)
	})
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(out)
	return err
}

// computeRecommend sweeps the (method, bound) grid over one series —
// exactly the compression half of a grid cell, per candidate.
func computeRecommend(ctx context.Context, maxTE float64, methods []compress.Method, bounds []float64, sp seriesParams, values []float64) ([]byte, error) {
	series := timeseries.New("request", sp.start, sp.interval, values)
	rawGz, err := compress.RawGzipSize(series)
	if err != nil {
		return nil, err
	}
	resp := recommendResponse{Source: "series", MaxTE: maxTE, Epsilon: math.NaN()}
	bestCR := -1.0
	// One pooled reconstruction buffer serves every candidate in the sweep.
	vals := compress.GetFloats(series.Len())
	defer func() { compress.PutFloats(vals) }()
	for _, m := range methods {
		comp, err := compress.New(m)
		if err != nil {
			return nil, err
		}
		for _, eps := range bounds {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c, err := comp.Compress(series, eps)
			if err != nil {
				return nil, badRequest("%s at eps=%v: %v", m, eps, err)
			}
			vals, err = c.AppendValues(vals[:0])
			if err != nil {
				return nil, err
			}
			te, err := stats.Evaluate(series.Values, vals)
			if err != nil {
				return nil, err
			}
			cand := recommendCandidate{
				Method:  m,
				Epsilon: eps,
				CR:      float64(rawGz) / float64(c.Size()),
				TENRMSE: te.NRMSE,
				OK:      te.NRMSE <= maxTE,
			}
			resp.Candidates = append(resp.Candidates, cand)
			if cand.OK && cand.CR > bestCR {
				bestCR = cand.CR
				resp.Found = true
				resp.Method = cand.Method
				resp.Epsilon = cand.Epsilon
				resp.CR = cand.CR
				resp.TE = cand.TENRMSE
			}
		}
	}
	if !resp.Found {
		resp.Epsilon = 0
	}
	return json.Marshal(resp)
}

// recommendFromGrid answers a dataset-level recommendation from the
// precomputed grid the server loaded (read-only) at startup.
func (s *Server) recommendFromGrid(w http.ResponseWriter, r *http.Request, dataset string) error {
	if s.grid == nil {
		return badRequest("no grid store configured: start the server with a grid store to serve dataset-level recommendations")
	}
	maxTFE, err := floatParam(r, "maxtfe", 0.1)
	if err != nil {
		return err
	}
	var models []string
	if raw := r.URL.Query().Get("models"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			if name = strings.TrimSpace(name); name != "" {
				models = append(models, name)
			}
		}
	}
	rec, err := core.Recommend(s.grid, dataset, maxTFE, models)
	if err != nil {
		return badRequest("%v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(recommendResponse{
		Source:  "grid",
		Found:   true,
		Dataset: dataset,
		MaxTFE:  maxTFE,
		Method:  rec.Method,
		Epsilon: rec.Epsilon,
		CR:      rec.CR,
		TE:      rec.TE,
		TFE:     rec.TFE,
	})
}

// handleStats implements GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
