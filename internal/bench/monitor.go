package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

const (
	monitorDataset = "ElecDem"
	monitorModel   = "DLinear"
	// noEarlyStop is a patience no fit reaches. Sessions fill a zero
	// patience with the default, so off has to be spelled as "never".
	noEarlyStop = 1 << 20
)

// monitorSessions lists one pass of the monitor workload: every lossy codec
// at two bounds, each session with warm-start DLinear updates, eight
// injected spikes and a drift at 60% of the stream. The initial fit never
// stops early (updates never do), so the training work is the same for
// every seed; eight epochs keep a session near its default length with
// early stopping.
func monitorSessions(c *child) []core.SessionOptions {
	scale, methods, bounds := 0.05, compress.LossyMethods(), []float64{0.01, 0.1}
	cfg := forecast.Config{Patience: noEarlyStop, Epochs: 8}
	if c.spec.Small {
		scale, methods, bounds = 0.02, []compress.Method{compress.MethodPMC, compress.MethodSwing}, []float64{0.1}
		cfg.Epochs, cfg.MaxTrainWindows = 2, 64
	}
	var out []core.SessionOptions
	for _, m := range methods {
		for _, eps := range bounds {
			out = append(out, core.SessionOptions{
				Dataset: monitorDataset, Scale: scale, Seed: c.spec.Seed,
				Method: m, Epsilon: eps, Model: monitorModel, Forecast: cfg,
				Spikes: 8, DriftAt: 0.6,
			})
		}
	}
	return out
}

// monitorPasses is the number of passes over the sessions: one per nine
// nominal seconds.
func monitorPasses(c *child) int {
	return max(1, int(math.Round(c.spec.Seconds/9)))
}

// sessionRun is one finished session.
type sessionRun struct {
	opts   core.SessionOptions
	report []byte // the report's JSON
	rep    *core.SessionReport
	secs   float64
	store  int64 // checkpoint store size in bytes
	err    error
}

// runSessions runs the sessions on loadWorkers goroutines, each session
// checkpointing to its own fresh store under dir.
func runSessions(c *child, dir, tag string, sessions []core.SessionOptions, reqBase int64) []sessionRun {
	runs := make([]sessionRun, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					return
				}
				o := sessions[i]
				o.Store = filepath.Join(dir, fmt.Sprintf("%s-%d.cells", tag, i))
				runs[i] = runSession(c.rec, o, reqBase+int64(i))
			}
		}()
	}
	wg.Wait()
	return runs
}

func runSession(rec *Recorder, o core.SessionOptions, req int64) sessionRun {
	r := sessionRun{opts: o}
	t := time.Now()
	span := rec.Begin("core.NewSession", 0, req)
	s, err := core.NewSession(o)
	rec.End(span)
	if err == nil {
		span = rec.Begin("core.Session.Run", 0, req)
		r.rep, err = s.Run(context.Background())
		rec.End(span)
	}
	r.secs = time.Since(t).Seconds()
	if err == nil {
		r.report, err = json.Marshal(r.rep)
	}
	if fi, serr := os.Stat(o.Store); serr == nil {
		r.store = fi.Size()
	}
	os.Remove(o.Store)
	r.err = err
	return r
}

// checkSession checks a report's invariants: every point streamed in
// 512-point ticks, the drift injected where asked, the model fitted, and
// detection scores in range.
func checkSession(r sessionRun) string {
	key := sessionKey(r.opts)
	if r.err != nil {
		return fmt.Sprintf("monitor %s: %v", key, r.err)
	}
	spec, _ := datasets.SpecOf(r.opts.Dataset)
	n := int64(float64(spec.Length) * r.opts.Scale)
	rep := r.rep
	ticks := int((n + timeseries.DefaultChunkSize - 1) / timeseries.DefaultChunkSize)
	fitted := false
	for _, e := range rep.Events {
		fitted = fitted || e.Kind == "model-fit"
	}
	switch {
	case rep.Points != n || rep.Ticks != ticks:
		return fmt.Sprintf("monitor %s: %d points in %d ticks, want %d in %d", key, rep.Points, rep.Ticks, n, ticks)
	case rep.DriftInjectedAt != int64(r.opts.DriftAt*float64(n)):
		return fmt.Sprintf("monitor %s: drift injected at %d", key, rep.DriftInjectedAt)
	case !fitted:
		return fmt.Sprintf("monitor %s: the model was never fitted", key)
	case !(rep.F1 >= 0 && rep.F1 <= 1 && rep.Precision >= 0 && rep.Precision <= 1 && rep.Recall >= 0 && rep.Recall <= 1):
		return fmt.Sprintf("monitor %s: detection scores out of range", key)
	}
	return ""
}

func sessionKey(o core.SessionOptions) string { return fmt.Sprintf("%s/%g", o.Method, o.Epsilon) }

// runMonitor runs every session of a pass, loadWorkers at a time, for the
// configured number of passes. Each session is an operation timed over
// NewSession and Run; the first pass's reports are the goldens and every
// later pass must reproduce them byte for byte.
func runMonitor(c *child) error {
	sessions := monitorSessions(c)
	dir, err := os.MkdirTemp("", "lossyts-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Calibrate the stream generator once, as every session's stream shares
	// the calibration.
	if _, err := datasets.StreamTarget(monitorDataset, sessions[0].Scale, c.spec.Seed, 0); err != nil {
		return err
	}
	if !c.ready() {
		return nil
	}
	passes := monitorPasses(c)
	var first []sessionRun
	var points int64
	c.begin()
	for p := 0; p < passes; p++ {
		runs := runSessions(c, dir, fmt.Sprintf("p%d", p), sessions, int64(p*len(sessions)))
		for i, r := range runs {
			msg := checkSession(r)
			if msg == "" && p == 0 {
				msg = c.output(sessionKey(r.opts), r.report)
			} else if msg == "" && string(r.report) != string(first[i].report) {
				msg = fmt.Sprintf("monitor %s: pass %d report differs from pass 0", sessionKey(r.opts), p)
			}
			c.op(r.secs*1e3, msg)
			if r.rep != nil {
				points += r.rep.Points
			}
		}
		if p == 0 {
			first = runs
		}
	}
	wall := c.end()
	if c.rec != nil {
		monitorLayers(c, dir, sessions, first, points, wall)
	}
	return nil
}

// monitorLayers reports the per-session layer metrics, runs the model-free
// twin pass whose throughput, against the workload's, is the cost of the
// model updates, and checks that an offline Replay reproduces Run.
func monitorLayers(c *child, dir string, sessions []core.SessionOptions, first []sessionRun, points int64, wall float64) {
	var secs []float64
	updates, perTick := 0, 0.0
	for _, r := range first {
		if r.rep == nil {
			return
		}
		secs = append(secs, r.secs)
		for _, e := range r.rep.Events {
			if e.Kind == "model-update" {
				updates++
			}
		}
		perTick += float64(r.store) / float64(r.rep.Ticks) / float64(len(first))
	}
	c.metric("points_per_s", float64(points)/wall)
	c.metric("core.session.p50_s", median(secs))
	c.metric("core.session.ticks", float64(first[0].rep.Ticks))
	c.metric("forecast.updates", float64(updates))
	c.metric("cellstore.bytes_per_tick", perTick)

	twin := append([]core.SessionOptions(nil), sessions...)
	for i := range twin {
		twin[i].Model = ""
	}
	t := time.Now()
	runs := runSessions(c, dir, "twin", twin, int64(monitorPasses(c)*len(sessions)))
	twinWall := time.Since(t).Seconds()
	var twinPoints int64
	for _, r := range runs {
		if r.err != nil {
			c.fail("monitor twin %s: %v", sessionKey(r.opts), r.err)
			return
		}
		twinPoints += r.rep.Points
	}
	c.metric("core.session.nomodel_points_per_s", float64(twinPoints)/twinWall)

	o := sessions[0]
	o.Store = filepath.Join(dir, "replay.cells")
	s, err := core.NewSession(o)
	var rep *core.SessionReport
	if err == nil {
		rep, err = s.Replay(context.Background())
	}
	var raw []byte
	if err == nil {
		raw, err = json.Marshal(rep)
	}
	switch {
	case err != nil:
		c.fail("monitor replay %s: %v", sessionKey(o), err)
	case string(raw) != string(first[0].report):
		c.fail("monitor replay %s: Replay report differs from Run", sessionKey(o))
	}
}
