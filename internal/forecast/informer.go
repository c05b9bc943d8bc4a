package forecast

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"lossyts/internal/nn"
)

// probSparseAttention is Informer's ProbSparse self-attention (Zhou et al.,
// AAAI 2021): only the top-u queries by the sparsity measurement
// M(q) = max_j(qkᵀ/√d) − mean_j(qkᵀ/√d) attend normally; the remaining
// "lazy" queries output the mean of the values, which for self-attention is
// the uniform-attention result.
type probSparseAttention struct {
	heads          int
	dModel         int
	factor         float64
	wq, wk, wv, wo *nn.Linear
}

func newProbSparseAttention(rng *rand.Rand, dModel, heads int, factor float64) *probSparseAttention {
	return &probSparseAttention{
		heads:  heads,
		dModel: dModel,
		factor: factor,
		wq:     nn.NewLinear(rng, dModel, dModel),
		wk:     nn.NewLinear(rng, dModel, dModel),
		wv:     nn.NewLinear(rng, dModel, dModel),
		wo:     nn.NewLinear(rng, dModel, dModel),
	}
}

func (p *probSparseAttention) params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, l := range []*nn.Linear{p.wq, p.wk, p.wv, p.wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (p *probSparseAttention) forward(x *nn.Tensor) *nn.Tensor {
	qh := nn.SplitHeads(p.wq.Forward(x), p.heads) // [BH, T, Dh]
	kh := nn.SplitHeads(p.wk.Forward(x), p.heads)
	vh := nn.SplitHeads(p.wv.Forward(x), p.heads)
	dh := p.dModel / p.heads
	scores := nn.Scale(nn.MatMul(qh, nn.Transpose(kh)), 1/math.Sqrt(float64(dh))) // [BH, T, T]

	bh, t := scores.Shape[0], scores.Shape[1]
	u := int(math.Ceil(p.factor * math.Log(float64(t)+1)))
	if u > t {
		u = t
	}
	// Select the top-u queries per batch-head by the sparsity measurement.
	// The selection itself is treated as a constant (as in Informer, where
	// lazy queries are simply never computed).
	selMask := nn.ZerosLike(scores, bh, t, t) // 1 on rows of active queries
	uniform := nn.ZerosLike(scores, bh, t, t) // 1/T on rows of lazy queries
	measure := make([]float64, t)             // M(q) per query
	order := make([]int, t)                   // query indices sorted by M(q)
	active := make([]bool, t)                 // top-u membership, reset per batch-head
	for b := 0; b < bh; b++ {
		base := b * t * t
		for qi := 0; qi < t; qi++ {
			row := scores.Data[base+qi*t : base+(qi+1)*t]
			maxV, sum := row[0], 0.0
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
				sum += v
			}
			measure[qi] = maxV - sum/float64(t)
			order[qi] = qi
		}
		// Partial selection of the u largest measurements.
		for i := 0; i < u; i++ {
			best := i
			for j := i + 1; j < t; j++ {
				if measure[order[j]] > measure[order[best]] {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
		clear(active)
		for i := 0; i < u; i++ {
			active[order[i]] = true
		}
		for qi := 0; qi < t; qi++ {
			row := base + qi*t
			if active[qi] {
				for j := 0; j < t; j++ {
					selMask.Data[row+j] = 1
				}
			} else {
				for j := 0; j < t; j++ {
					uniform.Data[row+j] = 1 / float64(t)
				}
			}
		}
	}
	attn := nn.Add(nn.Mul(nn.Softmax(scores), selMask), uniform)
	out := nn.MatMul(attn, vh)
	return p.wo.Forward(nn.MergeHeads(out, p.heads))
}

// informerEncLayer is an Informer encoder block: ProbSparse attention plus
// the standard feed-forward sublayer.
type informerEncLayer struct {
	attn *probSparseAttention
	ffn  *feedForward
	ln1  *nn.LayerNormModule
	ln2  *nn.LayerNormModule
}

func newInformerEncLayer(rng *rand.Rand, d, heads, ff int) *informerEncLayer {
	return &informerEncLayer{
		attn: newProbSparseAttention(rng, d, heads, 5),
		ffn:  newFeedForward(rng, d, ff),
		ln1:  nn.NewLayerNorm(d),
		ln2:  nn.NewLayerNorm(d),
	}
}

func (e *informerEncLayer) forward(x *nn.Tensor, dropout float64, rng *rand.Rand, train bool) *nn.Tensor {
	a := nn.Dropout(e.attn.forward(x), dropout, rng, train)
	x = e.ln1.Forward(nn.Add(x, a))
	f := nn.Dropout(e.ffn.forward(x), dropout, rng, train)
	return e.ln2.Forward(nn.Add(x, f))
}

func (e *informerEncLayer) params() []*nn.Tensor {
	ps := e.attn.params()
	ps = append(ps, e.ffn.params()...)
	ps = append(ps, e.ln1.Params()...)
	return append(ps, e.ln2.Params()...)
}

// informer is the Informer forecaster (§3.4, [65]): ProbSparse encoder
// self-attention, convolutional self-attention distilling between encoder
// layers (conv + ELU + max-pool halving the sequence), and a generative
// decoder that emits the whole horizon in a single forward pass.
type informer struct {
	cfg      Config
	rng      *rand.Rand
	d        int
	labelLen int
	embed    *nn.Linear
	pe       *nn.PositionalEncoding
	enc1     *informerEncLayer
	enc2     *informerEncLayer
	distill  *nn.Conv1D
	dec      *decoderLayer
	head     *nn.Linear
	mask     *nn.Tensor
	trained  bool
	updates  int
}

func init() {
	Register(Registration{
		Name:        "Informer",
		New:         func(cfg Config) Model { return newInformer(cfg) },
		Deep:        true,
		Incremental: true,
	})
}

func newInformer(cfg Config) *informer {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.HiddenSize
	if d < 8 {
		d = 32
	}
	const heads = 4
	return &informer{
		cfg:      cfg,
		rng:      rng,
		d:        d,
		labelLen: cfg.Horizon,
		embed:    nn.NewLinear(rng, 1, d),
		pe:       nn.NewPositionalEncoding(cfg.InputLen+2*cfg.Horizon+8, d),
		enc1:     newInformerEncLayer(rng, d, heads, 2*d),
		enc2:     newInformerEncLayer(rng, d, heads, 2*d),
		distill:  nn.NewConv1D(rng, 3, d, d),
		dec:      newDecoderLayer(rng, d, heads, 2*d),
		head:     nn.NewLinear(rng, d, 1),
		mask:     nn.CausalMask(2 * cfg.Horizon),
	}
}

func (m *informer) Name() string { return "Informer" }

func (m *informer) params() []*nn.Tensor {
	ps := m.embed.Params()
	ps = append(ps, m.enc1.params()...)
	ps = append(ps, m.enc2.params()...)
	ps = append(ps, m.distill.Params()...)
	ps = append(ps, m.dec.params()...)
	return append(ps, m.head.Params()...)
}

func (m *informer) embedSeq(x *nn.Tensor) *nn.Tensor {
	b, t := x.Shape[0], x.Shape[1]
	tokens := nn.Reshape(x, b, t, 1)
	return m.pe.Add(m.embed.Forward(tokens))
}

func (m *informer) forward(x *nn.Tensor, train bool) *nn.Tensor {
	dropout := m.cfg.Dropout
	memory := m.embedSeq(x)
	memory = m.enc1.forward(memory, dropout, m.rng, train)
	// Self-attention distilling: conv + ELU + max-pool halves the sequence.
	memory = nn.MaxPool1D(nn.ELU(m.distill.Forward(memory)), 3, 2)
	memory = m.enc2.forward(memory, dropout, m.rng, train)

	decSeq := m.embedSeq(decoderInput(x, m.labelLen, m.cfg.Horizon))
	out := m.dec.forward(decSeq, memory, m.mask, dropout, m.rng, train)
	b := x.Shape[0]
	vals := nn.Reshape(m.head.Forward(out), b, m.labelLen+m.cfg.Horizon)
	return nn.Narrow(vals, 1, m.labelLen, m.cfg.Horizon)
}

func (m *informer) Fit(train, val []float64) error {
	return m.FitContext(context.Background(), train, val)
}

// FitContext is Fit with cancellation honoured at epoch boundaries.
func (m *informer) FitContext(ctx context.Context, train, val []float64) error {
	if err := trainNeural(ctx, m, m.cfg, m.rng, train, val); err != nil {
		return err
	}
	m.trained = true
	return nil
}

// Update warm-starts a short training continuation on the newest windows;
// see IncrementalFitter.
func (m *informer) Update(ctx context.Context, train, val []float64) error {
	if !m.trained {
		return m.FitContext(ctx, train, val)
	}
	m.updates++
	m.rng = updateRNG(m.cfg.Seed, m.updates)
	return trainNeural(ctx, m, updateConfig(m.cfg), m.rng, train, val)
}

// StateSnapshot captures the weights for session checkpointing.
func (m *informer) StateSnapshot() ModelState {
	return neuralSnapshot("Informer", m.updates, m.trained, m.params())
}

// RestoreState loads a checkpointed snapshot back into the model.
func (m *informer) RestoreState(st ModelState) error {
	if err := neuralRestore("Informer", st, m.params()); err != nil {
		return err
	}
	m.updates, m.trained = st.Updates, st.Trained
	return nil
}

func (m *informer) Predict(inputs [][]float64) ([][]float64, error) {
	if !m.trained {
		return nil, errors.New("forecast: Informer predict before fit")
	}
	if err := checkInputs(inputs, m.cfg.InputLen); err != nil {
		return nil, err
	}
	return predictNeural(m, m.cfg, inputs), nil
}
