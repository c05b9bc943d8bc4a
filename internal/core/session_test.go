package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/core/cellstore"
	"lossyts/internal/forecast"
)

// monitorTestOpts is a small but complete session: injected spikes and a
// level shift on a short ElecDem stream (period 48 keeps all the monitor
// windows tight).
func monitorTestOpts() SessionOptions {
	return SessionOptions{
		Dataset:   "ElecDem",
		Scale:     0.005, // ~1150 points
		Seed:      7,
		Method:    compress.MethodPMC,
		Epsilon:   0.05,
		ChunkSize: 128,
		Spikes:    5,
		DriftAt:   0.7,
		// The batch detector default (5) is tuned for recall on raw data;
		// scoring point-exact detections on a lossy reconstruction wants a
		// stricter cut so reconstruction artefacts near genuine spikes
		// don't flood precision.
		AnomalyThreshold: 9,
	}
}

func reportBytes(t *testing.T, rep *SessionReport) []byte {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSessionStreamReplayIdentical is the determinism gate: two fresh
// sessions with the same options, one driven by Run and one by Replay, must
// produce byte-identical reports.
func TestSessionStreamReplayIdentical(t *testing.T) {
	opts := monitorTestOpts()
	a, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := b.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, streamed), reportBytes(t, replayed)) {
		t.Fatalf("stream and replay reports differ:\n%s\nvs\n%s",
			reportBytes(t, streamed), reportBytes(t, replayed))
	}
	if streamed.Points == 0 || streamed.Ticks == 0 {
		t.Fatalf("empty session: %+v", streamed)
	}
}

// TestSessionDetectsInjectedSignals sanity-checks the monitors end to end:
// the injected level shift is detected after (not before) injection, and
// the injected spikes score a usable F1 at a modest error bound.
func TestSessionDetectsInjectedSignals(t *testing.T) {
	opts := monitorTestOpts()
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DriftInjectedAt < 0 {
		t.Fatal("no drift injected")
	}
	if rep.DriftDetectedAt < rep.DriftInjectedAt {
		t.Fatalf("drift detected at %d before injection at %d", rep.DriftDetectedAt, rep.DriftInjectedAt)
	}
	if rep.DriftDelay < 0 {
		t.Fatalf("injected 3σ level shift never detected: %+v", rep)
	}
	if rep.F1 < 0.5 {
		t.Fatalf("anomaly F1 %.2f too low (precision %.2f recall %.2f, detected %v, truth %v)",
			rep.F1, rep.Precision, rep.Recall, rep.Detected, rep.TruthSpikes)
	}
	if rep.CompressionRatio <= 1 {
		t.Fatalf("compression ratio %.2f not > 1", rep.CompressionRatio)
	}
	if rep.TE <= 0 {
		t.Fatalf("TE %v not positive under lossy compression", rep.TE)
	}
}

// tickCtx is a deterministic kill switch: Err starts failing after the
// context has been consulted n times — the session checks once per tick, so
// this kills the loop at an exact tick boundary, like a kill -9 between
// chunks.
type tickCtx struct {
	context.Context
	left int
}

func (c *tickCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func (c *tickCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestSessionResumeMatchesUninterrupted: kill a checkpointing session
// mid-run, corrupt the journal tail (the torn final write of a real kill),
// resume from the store, and require the final report to be byte-identical
// to an uninterrupted run.
func TestSessionResumeMatchesUninterrupted(t *testing.T) {
	opts := monitorTestOpts()
	base, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	opts.Store = filepath.Join(t.TempDir(), "session.cells")
	killed, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killed.Run(&tickCtx{Context: context.Background(), left: 3}); err == nil {
		t.Fatal("killed session finished anyway")
	}
	// Torn tail: a kill mid-Put leaves a partial record; Open must shear it
	// off and fall back to the last complete checkpoint.
	f, err := os.OpenFile(opts.Store, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-record-garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\nvs\n%s",
			reportBytes(t, want), reportBytes(t, got))
	}

	// Resuming a finished session replays nothing and regenerates the same
	// report.
	again, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := again.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, want), reportBytes(t, rep)) {
		t.Fatal("finished-session resume changed the report")
	}
}

// TestSessionModelResume runs the full online loop with an incremental
// model in it and checks the kill → resume path restores the model
// (Snapshotter) bit-exactly: the resumed run's report, including
// prequential forecast error, matches the uninterrupted one.
func TestSessionModelResume(t *testing.T) {
	if testing.Short() {
		t.Skip("model session in -short mode")
	}
	opts := monitorTestOpts()
	opts.Model = "DLinear"
	opts.Forecast = forecast.Config{
		InputLen:     48,
		Horizon:      12,
		Epochs:       1,
		UpdateEpochs: 1,
		HiddenSize:   8,
	}
	base, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.ForecastPoints == 0 {
		t.Fatal("model session scored no forecasts")
	}

	opts.Store = filepath.Join(t.TempDir(), "session.cells")
	killed, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Kill after enough ticks that the model has fitted (warmup 192 points
	// = 2 chunks of 128) and at least one forecast is pending.
	if _, err := killed.Run(&tickCtx{Context: context.Background(), left: 4}); err == nil {
		t.Fatal("killed session finished anyway")
	}
	resumed, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
		t.Fatalf("model session resume diverged:\n%s\nvs\n%s",
			reportBytes(t, want), reportBytes(t, got))
	}
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256(checkpointJSON(t, resumed))
		if got := hex.EncodeToString(sum[:]); got != checkpointGoldenAMD64 {
			t.Fatalf("final checkpoint record drifted from the committed golden:\n got  %s\n want %s", got, checkpointGoldenAMD64)
		}
	}
}

// checkpointGoldenAMD64 is the SHA-256 of the JSON of the final checkpoint
// record that TestSessionModelResume's resumed DLinear session writes, as
// computed on linux/amd64. Float arithmetic may differ on other
// architectures, so the comparison runs on amd64 only.
const checkpointGoldenAMD64 = "035d543ca33318461e4bb396a031597211e3339438e3bb755a65a71a0f080288"

// checkpointJSON returns the JSON of the checkpoint record that a finished
// session left in its store.
func checkpointJSON(t *testing.T, s *Session) []byte {
	t.Helper()
	store, err := cellstore.OpenReadOnly(s.opts.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	payload, ok := store.Get(s.opts.stateRecordKey())
	if !ok {
		t.Fatal("store holds no session checkpoint")
	}
	j, err := compress.GunzipBytes(payload)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestMonitorSweepParallelismInvariant: the sweep's merged output is
// byte-identical at parallelism 1 and NumCPU.
func TestMonitorSweepParallelismInvariant(t *testing.T) {
	opts := monitorTestOpts()
	methods := []compress.Method{compress.MethodPMC, compress.MethodSwing}
	bounds := []float64{0.01, 0.1}
	seq, err := MonitorSweep(context.Background(), opts, methods, bounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MonitorSweep(context.Background(), opts, methods, bounds, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Fatal("sweep output depends on parallelism")
	}
	if len(seq.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(seq.Cells))
	}
	for _, c := range seq.Cells {
		if c.Report == nil {
			t.Fatalf("cell %s/%g has no report", c.Method, c.Epsilon)
		}
	}
}

// TestSessionOptionValidation pins the constructor's error paths.
func TestSessionOptionValidation(t *testing.T) {
	bad := monitorTestOpts()
	bad.Dataset = "NoSuchDataset"
	if _, err := NewSession(bad); err == nil {
		t.Error("unknown dataset accepted")
	}
	bad = monitorTestOpts()
	bad.DriftAt = 0.01 // inside warmup
	if _, err := NewSession(bad); err == nil {
		t.Error("drift inside warmup accepted")
	}
	bad = monitorTestOpts()
	bad.Warmup = 10_000_000
	if _, err := NewSession(bad); err == nil {
		t.Error("warmup longer than stream accepted")
	}
	bad = monitorTestOpts()
	bad.Model = "NoSuchModel"
	if _, err := NewSession(bad); err == nil {
		t.Error("unknown model accepted")
	}
}
