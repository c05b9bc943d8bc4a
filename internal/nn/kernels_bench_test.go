package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMul times one forward + backward of a training-shaped matmul
// (batch·time rows against a d_model×d_model weight), including the graph
// and gradient-buffer allocations the arena is meant to absorb.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, d = 256, 64
	x := Randn(rng, 1, rows, d)
	w := Randn(rng, 1, d, d).Param()
	arena := NewArena()
	defer arena.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ZeroGrad()
		Mean(MatMul(x.InArena(arena), w)).Backward()
		arena.Reset()
	}
}
