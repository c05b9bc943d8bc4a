package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lossyts/internal/nn"
)

// oneTrainingStep builds the named deep model and returns a closure running
// one full optimizer step (forward, backward, clip, Adam update, arena
// reset) on a fixed synthetic batch, exercising every hot path of the nn
// package: blocked matmuls, fused ops, and the arena.
func oneTrainingStep(modelName string, batchSize int, seed int64) (func(), error) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	model, err := New(modelName, cfg)
	if err != nil {
		return nil, err
	}
	net, ok := model.(network)
	if !ok {
		return nil, fmt.Errorf("forecast: %s is not a deep model", modelName)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	x := nn.Zeros(batchSize, cfg.InputLen)
	y := nn.Zeros(batchSize, cfg.Horizon)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i)/7) + 0.1*rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = math.Sin(float64(i)/7) + 0.1*rng.NormFloat64()
	}
	params := net.params()
	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	arena := nn.NewArena()
	return func() {
		nn.ZeroGrad(params)
		loss := nn.MSE(net.forward(x.InArena(arena), true), y)
		loss.Backward()
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
		arena.Reset()
	}, nil
}

// benchmarkStep times one full optimizer step (forward, backward, clip,
// Adam, arena reset) of the named deep model at the default configuration.
func benchmarkStep(b *testing.B, modelName string) {
	step, err := oneTrainingStep(modelName, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	step() // warm the arena so steady-state allocation is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkGRUStep(b *testing.B)         { benchmarkStep(b, "GRU") }
func BenchmarkTransformerStep(b *testing.B) { benchmarkStep(b, "Transformer") }
func BenchmarkInformerStep(b *testing.B)    { benchmarkStep(b, "Informer") }
