package forecast

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"lossyts/internal/nn"
	"lossyts/internal/timeseries"
)

// network is the contract deep models implement for the shared trainer:
// a forward pass from an input batch [B, InputLen] to forecasts [B, Horizon].
type network interface {
	params() []*nn.Tensor
	forward(x *nn.Tensor, train bool) *nn.Tensor
}

// trainNeural runs the paper's training recipe: Adam (lr 1e-3, weight decay
// 1e-4), MSE loss, early stopping on the validation subset with patience 3.
// Cancellation is checked once per epoch — the granularity at which a
// cancelled grid run stops paying for training without adding a branch to
// the per-batch hot loop — and the context's error is returned verbatim.
func trainNeural(ctx context.Context, net network, cfg Config, rng *rand.Rand, train, val []float64) error {
	tw, err := timeseries.MakeWindows(train, cfg.InputLen, cfg.Horizon, 1)
	if err != nil {
		return fmt.Errorf("forecast: training windows: %w", err)
	}
	trainIdx := subsampleIndices(tw.Len(), cfg.MaxTrainWindows)

	// Validation windows; when the validation slice is too short, hold out
	// the tail of the training windows instead.
	var valIn, valTgt [][]float64
	if vw, err := timeseries.MakeWindows(val, cfg.InputLen, cfg.Horizon, 1); err == nil {
		vi := subsampleIndices(vw.Len(), 128)
		for _, i := range vi {
			valIn = append(valIn, vw.Windows[i].Input)
			valTgt = append(valTgt, vw.Windows[i].Target)
		}
	} else if len(trainIdx) > 8 {
		cut := len(trainIdx) - len(trainIdx)/5
		for _, i := range trainIdx[cut:] {
			valIn = append(valIn, tw.Windows[i].Input)
			valTgt = append(valTgt, tw.Windows[i].Target)
		}
		trainIdx = trainIdx[:cut]
	}

	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	params := net.params()
	// All intermediate tensors of a training step come from one arena:
	// tagging the input batch pools the whole forward/backward graph, the
	// arena recycles its buffers locally after each optimizer step, and
	// Release hands the memory to the global pools when the fit ends (so
	// concurrent (model, seed) units share a steady-state working set).
	arena := nn.NewArena()
	defer arena.Release()
	bestVal := math.Inf(1)
	var best [][]float64
	stall := 0
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 10
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	order := append([]int(nil), trainIdx...)
	for epoch := 0; epoch < epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			x := arena.Zeros(len(batch), cfg.InputLen)
			y := arena.Zeros(len(batch), cfg.Horizon)
			for bi, wi := range batch {
				copy(x.Data[bi*cfg.InputLen:(bi+1)*cfg.InputLen], tw.Windows[wi].Input)
				copy(y.Data[bi*cfg.Horizon:(bi+1)*cfg.Horizon], tw.Windows[wi].Target)
			}
			nn.ZeroGrad(params)
			loss := nn.MSE(net.forward(x, true), y)
			loss.Backward()
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			arena.Reset()
		}
		if len(valIn) == 0 {
			continue
		}
		// The validation pass runs in the training arena: its buffers are
		// recycled epoch to epoch instead of being drawn from the global
		// pools, which a GC may have emptied since the previous epoch.
		v := evalMSE(net, cfg, valIn, valTgt, arena)
		if v < bestVal-1e-9 {
			bestVal = v
			best = snapshot(best, params)
			stall = 0
		} else {
			stall++
			if cfg.Patience > 0 && stall >= cfg.Patience {
				break
			}
		}
	}
	if best != nil {
		restore(params, best)
	}
	return nil
}

func evalMSE(net network, cfg Config, inputs, targets [][]float64, arena *nn.Arena) float64 {
	preds := predictInArena(net, cfg, inputs, arena)
	var s float64
	var n int
	for i := range preds {
		for j := range preds[i] {
			d := preds[i][j] - targets[i][j]
			s += d * d
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return s / float64(n)
}

// predictNeural evaluates the network in inference mode.
func predictNeural(net network, cfg Config, inputs [][]float64) [][]float64 {
	arena := nn.NewArena()
	defer arena.Release()
	return predictInArena(net, cfg, inputs, arena)
}

// predictInArena is predictNeural drawing every buffer from arena, which it
// resets after each batch; no tensor from arena may be live on entry. The
// returned rows share one backing array, each capped at its own end.
func predictInArena(net network, cfg Config, inputs [][]float64, arena *nn.Arena) [][]float64 {
	h := cfg.Horizon
	out := make([][]float64, 0, len(inputs))
	rows := make([]float64, len(inputs)*h)
	const bs = 64
	for start := 0; start < len(inputs); start += bs {
		end := start + bs
		if end > len(inputs) {
			end = len(inputs)
		}
		batch := inputs[start:end]
		x := arena.Zeros(len(batch), cfg.InputLen)
		for bi, w := range batch {
			copy(x.Data[bi*cfg.InputLen:(bi+1)*cfg.InputLen], w)
		}
		pred := net.forward(x, false)
		for bi := range batch {
			i := len(out)
			row := rows[i*h : (i+1)*h : (i+1)*h]
			copy(row, pred.Data[bi*h:(bi+1)*h])
			out = append(out, row)
		}
		// Prediction rows were copied out above, so the graph's arena
		// buffers can be recycled before the next batch.
		arena.Reset()
	}
	return out
}

// snapshot copies the parameters' values, reusing the buffers of snap, an
// earlier snapshot of the same parameters, when it is not nil.
func snapshot(snap [][]float64, params []*nn.Tensor) [][]float64 {
	if snap == nil {
		snap = make([][]float64, len(params))
	}
	for i, p := range params {
		snap[i] = append(snap[i][:0], p.Data...)
	}
	return snap
}

func restore(params []*nn.Tensor, snap [][]float64) {
	for i, p := range params {
		copy(p.Data, snap[i])
	}
}
