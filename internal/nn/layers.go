package nn

import (
	"math"
	"math/rand"
)

// Linear is a fully connected layer y = xW + b with W of shape [in, out].
type Linear struct {
	W *Tensor
	B *Tensor
}

// NewLinear returns a linear layer with Xavier/Glorot initialisation.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: Randn(rng, scale, in, out).Param(),
		B: Zeros(out).Param(),
	}
}

// Forward applies the layer to x of shape [..., in]. It runs as a single
// fused matmul+bias node.
func (l *Linear) Forward(x *Tensor) *Tensor {
	return LinearFused(x, l.W, l.B, ActIdentity)
}

// ForwardAct applies the layer and an activation as one fused node.
func (l *Linear) ForwardAct(x *Tensor, act Activation) *Tensor {
	return LinearFused(x, l.W, l.B, act)
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// LayerNormModule is a layer normalisation with learnable gain and bias.
type LayerNormModule struct {
	Gain *Tensor
	Bias *Tensor
	Eps  float64
}

// NewLayerNorm returns a layer norm over vectors of length d.
func NewLayerNorm(d int) *LayerNormModule {
	return &LayerNormModule{Gain: Full(1, d).Param(), Bias: Zeros(d).Param(), Eps: 1e-5}
}

// Forward normalises the last dimension of x.
func (l *LayerNormModule) Forward(x *Tensor) *Tensor {
	return LayerNorm(x, l.Gain, l.Bias, l.Eps)
}

// Params returns the trainable parameters.
func (l *LayerNormModule) Params() []*Tensor { return []*Tensor{l.Gain, l.Bias} }

// SplitHeads reshapes [B, T, D] into [B·H, T, D/H] for multi-head attention.
func SplitHeads(x *Tensor, heads int) *Tensor {
	b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	if d%heads != 0 {
		panic("nn: model dim not divisible by heads")
	}
	dh := d / heads
	data := allocFromUninit(arenaOf(x), len(x.Data))
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			for h := 0; h < heads; h++ {
				src := (bi*t+ti)*d + h*dh
				dst := ((bi*heads+h)*t + ti) * dh
				copy(data[dst:dst+dh], x.Data[src:src+dh])
			}
		}
	}
	return result([]int{b * heads, t, dh}, data, func(out *Tensor) {
		if !x.requiresGrad {
			return
		}
		for bi := 0; bi < b; bi++ {
			for ti := 0; ti < t; ti++ {
				for h := 0; h < heads; h++ {
					src := (bi*t+ti)*d + h*dh
					dst := ((bi*heads+h)*t + ti) * dh
					for c := 0; c < dh; c++ {
						x.Grad[src+c] += out.Grad[dst+c]
					}
				}
			}
		}
	}, x)
}

// MergeHeads is the inverse of SplitHeads: [B·H, T, Dh] → [B, T, H·Dh].
func MergeHeads(x *Tensor, heads int) *Tensor {
	bh, t, dh := x.Shape[0], x.Shape[1], x.Shape[2]
	if bh%heads != 0 {
		panic("nn: batch not divisible by heads")
	}
	b := bh / heads
	d := heads * dh
	data := allocFromUninit(arenaOf(x), len(x.Data))
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			for h := 0; h < heads; h++ {
				src := ((bi*heads+h)*t + ti) * dh
				dst := (bi*t+ti)*d + h*dh
				copy(data[dst:dst+dh], x.Data[src:src+dh])
			}
		}
	}
	return result([]int{b, t, d}, data, func(out *Tensor) {
		if !x.requiresGrad {
			return
		}
		for bi := 0; bi < b; bi++ {
			for ti := 0; ti < t; ti++ {
				for h := 0; h < heads; h++ {
					src := ((bi*heads+h)*t + ti) * dh
					dst := (bi*t+ti)*d + h*dh
					for c := 0; c < dh; c++ {
						x.Grad[src+c] += out.Grad[dst+c]
					}
				}
			}
		}
	}, x)
}

// MultiHeadAttention is standard scaled dot-product attention with H heads
// (Vaswani et al. 2017).
type MultiHeadAttention struct {
	Heads          int
	DModel         int
	Wq, Wk, Wv, Wo *Linear
}

// NewMultiHeadAttention returns an attention module with dModel features.
func NewMultiHeadAttention(rng *rand.Rand, dModel, heads int) *MultiHeadAttention {
	return &MultiHeadAttention{
		Heads:  heads,
		DModel: dModel,
		Wq:     NewLinear(rng, dModel, dModel),
		Wk:     NewLinear(rng, dModel, dModel),
		Wv:     NewLinear(rng, dModel, dModel),
		Wo:     NewLinear(rng, dModel, dModel),
	}
}

// Forward computes attention of queries q over keys/values k, v (shapes
// [B, Tq, D], [B, Tk, D], [B, Tk, D]). A non-nil mask of shape [Tq, Tk]
// blocks attention where mask != 0 (causal masking).
func (m *MultiHeadAttention) Forward(q, k, v *Tensor, mask *Tensor) *Tensor {
	qh := SplitHeads(m.Wq.Forward(q), m.Heads) // [BH, Tq, Dh]
	kh := SplitHeads(m.Wk.Forward(k), m.Heads)
	vh := SplitHeads(m.Wv.Forward(v), m.Heads)
	dh := m.DModel / m.Heads
	out := ScaledDotAttention(qh, kh, vh, mask, 1/math.Sqrt(float64(dh))) // [BH, Tq, Dh]
	return m.Wo.Forward(MergeHeads(out, m.Heads))
}

// Params returns the trainable parameters.
func (m *MultiHeadAttention) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range []*Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// CausalMask returns a [t, t] mask with ones above the diagonal, blocking
// attention to future positions.
func CausalMask(t int) *Tensor {
	m := Zeros(t, t)
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			m.Data[i*t+j] = 1
		}
	}
	return m
}

// GRUCell is a gated recurrent unit cell (Cho et al. 2014).
type GRUCell struct {
	Hidden                 int
	Wz, Wr, Wh, Uz, Ur, Uh *Linear
}

// NewGRUCell returns a GRU cell mapping inputs of size in to a hidden state
// of size hidden.
func NewGRUCell(rng *rand.Rand, in, hidden int) *GRUCell {
	return &GRUCell{
		Hidden: hidden,
		Wz:     NewLinear(rng, in, hidden),
		Wr:     NewLinear(rng, in, hidden),
		Wh:     NewLinear(rng, in, hidden),
		Uz:     NewLinear(rng, hidden, hidden),
		Ur:     NewLinear(rng, hidden, hidden),
		Uh:     NewLinear(rng, hidden, hidden),
	}
}

// Step advances the cell one time step: x is [B, in], h is [B, hidden].
// The gate chains run as fused nodes: sigmoid/tanh fold into the gate sums
// (AddSigmoid, AddTanh) and the state update is a single Lerp instead of
// the five-op ones/Sub/Mul/Mul/Add chain.
func (g *GRUCell) Step(x, h *Tensor) *Tensor {
	z := AddSigmoid(g.Wz.Forward(x), g.Uz.Forward(h))
	r := AddSigmoid(g.Wr.Forward(x), g.Ur.Forward(h))
	hTilde := AddTanh(g.Wh.Forward(x), g.Uh.Forward(Mul(r, h)))
	return Lerp(h, hTilde, z)
}

// Params returns the trainable parameters.
func (g *GRUCell) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range []*Linear{g.Wz, g.Wr, g.Wh, g.Uz, g.Ur, g.Uh} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// PositionalEncoding holds the fixed sinusoidal position table of the
// Transformer (Vaswani et al. 2017).
type PositionalEncoding struct {
	table *Tensor // [maxLen, d]
	d     int
}

// NewPositionalEncoding precomputes encodings for positions < maxLen.
func NewPositionalEncoding(maxLen, d int) *PositionalEncoding {
	t := Zeros(maxLen, d)
	for pos := 0; pos < maxLen; pos++ {
		for i := 0; i < d; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				t.Data[pos*d+i] = math.Sin(angle)
			} else {
				t.Data[pos*d+i] = math.Cos(angle)
			}
		}
	}
	return &PositionalEncoding{table: t, d: d}
}

// Add adds positional encodings to x of shape [B, T, d].
func (p *PositionalEncoding) Add(x *Tensor) *Tensor {
	b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	if d != p.d || t > p.table.Shape[0] {
		panic("nn: positional encoding size mismatch")
	}
	data := allocFromUninit(arenaOf(x), len(x.Data))
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			off := (bi*t + ti) * d
			pe := p.table.Data[ti*d : (ti+1)*d]
			for c := 0; c < d; c++ {
				data[off+c] = x.Data[off+c] + pe[c]
			}
		}
	}
	return result(x.Shape, data, func(out *Tensor) {
		if !x.requiresGrad {
			return
		}
		addAcc(x.Grad, out.Grad)
	}, x)
}

// MovingAvg1D smooths each row of x ([B, L]) with a centred moving average
// of the given kernel size, replicating the edge values as padding — the
// series decomposition block of DLinear (Zeng et al. 2023).
func MovingAvg1D(x *Tensor, kernel int) *Tensor {
	if kernel < 1 {
		panic("nn: moving average kernel must be >= 1")
	}
	b, l := x.Shape[0], x.Shape[1]
	front := (kernel - 1) / 2
	back := kernel - 1 - front
	data := allocFrom(arenaOf(x), len(x.Data))
	// contrib[j] collects which padded index each position maps to; padding
	// replicates x[0] and x[l-1].
	clampIdx := func(j int) int {
		if j < 0 {
			return 0
		}
		if j >= l {
			return l - 1
		}
		return j
	}
	inv := 1 / float64(kernel)
	for bi := 0; bi < b; bi++ {
		row := x.Data[bi*l : (bi+1)*l]
		out := data[bi*l : (bi+1)*l]
		for i := 0; i < l; i++ {
			var s float64
			for j := i - front; j <= i+back; j++ {
				s += row[clampIdx(j)]
			}
			out[i] = s * inv
		}
	}
	return result(x.Shape, data, func(out *Tensor) {
		if !x.requiresGrad {
			return
		}
		for bi := 0; bi < b; bi++ {
			g := out.Grad[bi*l : (bi+1)*l]
			xg := x.Grad[bi*l : (bi+1)*l]
			for i := 0; i < l; i++ {
				gi := g[i] * inv
				for j := i - front; j <= i+back; j++ {
					xg[clampIdx(j)] += gi
				}
			}
		}
	}, x)
}
