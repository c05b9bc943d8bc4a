package forecast

import (
	"context"
	"fmt"
	"math/rand"

	"lossyts/internal/nn"
)

// IncrementalFitter is the online-session model contract (ISSUE 9): a model
// that, after an initial Fit, can absorb the newest data with a warm-start
// Update instead of retraining from scratch — the LFZip-style shape a
// streaming lossy pipeline needs. The deep models implement it by continuing
// trainNeural for a few epochs from the current weights; Arima and GBoost
// implement it through their (cheap, deterministic) retrain path.
type IncrementalFitter interface {
	Model
	// Update continues training on the newest (scaled) train/val windows.
	// On an unfitted model it behaves like Fit.
	Update(ctx context.Context, train, val []float64) error
}

// ModelState is a model's serialisable weight snapshot — what the session
// checkpoints so a killed monitor resumes with the exact parameters (JSON
// round-trips float64 bit-exactly).
type ModelState struct {
	Name    string      `json:"name"`
	Updates int         `json:"updates"`
	Trained bool        `json:"trained"`
	Params  [][]float64 `json:"params"`
}

// Snapshotter is implemented by models whose full fitted state lives in
// their parameter tensors (the five deep models). Models without it (Arima,
// GBoost) are checkpointed by their training window instead and refit on
// resume — deterministic either way.
type Snapshotter interface {
	StateSnapshot() ModelState
	RestoreState(ModelState) error
}

// updateRNG derives the generator for the k-th incremental update from the
// model seed alone. Every Update reseeds before training, so a model
// restored from a checkpoint replays the exact shuffle/dropout stream of the
// uninterrupted run without ever serialising generator state.
func updateRNG(seed int64, update int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(update)*6364136223846793005))
}

// updateConfig derives the short-continuation training config an Update
// pass uses: UpdateEpochs epochs (default Epochs/5, at least 1) with early
// stopping disabled — the pass is already a bounded refresh.
func updateConfig(cfg Config) Config {
	e := cfg.UpdateEpochs
	if e <= 0 {
		e = cfg.Epochs / 5
		if e < 1 {
			e = 1
		}
	}
	cfg.Epochs = e
	return cfg
}

// neuralSnapshot builds the ModelState for a deep model.
func neuralSnapshot(name string, updates int, trained bool, params []*nn.Tensor) ModelState {
	return ModelState{Name: name, Updates: updates, Trained: trained, Params: snapshot(nil, params)}
}

// neuralRestore validates st against the model's parameter shapes and copies
// the weights in.
func neuralRestore(name string, st ModelState, params []*nn.Tensor) error {
	if st.Name != name {
		return fmt.Errorf("forecast: restoring %q state into %s", st.Name, name)
	}
	if len(st.Params) != len(params) {
		return fmt.Errorf("forecast: %s state has %d tensors, model has %d", name, len(st.Params), len(params))
	}
	for i, p := range params {
		if len(st.Params[i]) != len(p.Data) {
			return fmt.Errorf("forecast: %s state tensor %d has %d values, model has %d", name, i, len(st.Params[i]), len(p.Data))
		}
	}
	restore(params, st.Params)
	return nil
}
