package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestGradLinearFused finite-difference-checks every activation of the
// fused linear op against the autodiff gradients, for x, w, and b.
func TestGradLinearFused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		act  Activation
	}{
		{"Identity", ActIdentity},
		{"Sigmoid", ActSigmoid},
		{"Tanh", ActTanh},
		{"GELU", ActGELU},
	} {
		x := Randn(rng, 1, 3, 4).Param()
		w := Randn(rng, 1, 4, 5).Param()
		b := Randn(rng, 1, 5).Param()
		c := Randn(rng, 1, 3, 5)
		loss := func() *Tensor {
			x.ZeroGrad()
			w.ZeroGrad()
			b.ZeroGrad()
			return Mean(Mul(LinearFused(x, w, b, tc.act), c))
		}
		checkGrad(t, "LinearFused/"+tc.name+"/X", x, loss, 1e-5)
		checkGrad(t, "LinearFused/"+tc.name+"/W", w, loss, 1e-5)
		checkGrad(t, "LinearFused/"+tc.name+"/B", b, loss, 1e-5)
	}
}

// TestGradLinearFusedReLU keeps pre-activations away from the ReLU kink,
// where a finite difference straddling zero is meaningless.
func TestGradLinearFusedReLU(t *testing.T) {
	x := New([]int{2, 2}, []float64{1, -0.5, 0.25, 2}).Param()
	w := New([]int{2, 2}, []float64{1, 0.5, -0.5, 1}).Param()
	b := New([]int{2}, []float64{0.1, -0.2}).Param()
	c := New([]int{2, 2}, []float64{0.3, -0.7, 1.1, 0.5})
	loss := func() *Tensor {
		x.ZeroGrad()
		w.ZeroGrad()
		b.ZeroGrad()
		return Mean(Mul(LinearFused(x, w, b, ActReLU), c))
	}
	checkGrad(t, "LinearFused/ReLU/X", x, loss, 1e-5)
	checkGrad(t, "LinearFused/ReLU/W", w, loss, 1e-5)
	checkGrad(t, "LinearFused/ReLU/B", b, loss, 1e-5)
}

func TestGradLinearFusedNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := Randn(rng, 1, 3, 4).Param()
	w := Randn(rng, 1, 4, 2).Param()
	c := Randn(rng, 1, 3, 2)
	loss := func() *Tensor {
		x.ZeroGrad()
		w.ZeroGrad()
		return Mean(Mul(LinearFused(x, w, nil, ActTanh), c))
	}
	checkGrad(t, "LinearFused/NoBias/X", x, loss, 1e-5)
	checkGrad(t, "LinearFused/NoBias/W", w, loss, 1e-5)
}

func TestGradAddSigmoidAddTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Randn(rng, 1, 3, 4).Param()
	b := Randn(rng, 1, 3, 4).Param()
	c := Randn(rng, 1, 3, 4)
	sig := func() *Tensor { a.ZeroGrad(); b.ZeroGrad(); return Mean(Mul(AddSigmoid(a, b), c)) }
	checkGrad(t, "AddSigmoid/A", a, sig, 1e-5)
	checkGrad(t, "AddSigmoid/B", b, sig, 1e-5)
	tanh := func() *Tensor { a.ZeroGrad(); b.ZeroGrad(); return Mean(Mul(AddTanh(a, b), c)) }
	checkGrad(t, "AddTanh/A", a, tanh, 1e-5)
	checkGrad(t, "AddTanh/B", b, tanh, 1e-5)
}

func TestGradLerp(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Randn(rng, 1, 3, 4).Param()
	b := Randn(rng, 1, 3, 4).Param()
	w := Randn(rng, 1, 3, 4).Param()
	c := Randn(rng, 1, 3, 4)
	loss := func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		w.ZeroGrad()
		return Mean(Mul(Lerp(a, b, w), c))
	}
	checkGrad(t, "Lerp/A", a, loss, 1e-5)
	checkGrad(t, "Lerp/B", b, loss, 1e-5)
	checkGrad(t, "Lerp/W", w, loss, 1e-5)
}

func TestGradLinearPairSum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Randn(rng, 1, 3, 4).Param()
	wa := Randn(rng, 1, 4, 5).Param()
	ba := Randn(rng, 1, 5).Param()
	b := Randn(rng, 1, 3, 6).Param()
	wb := Randn(rng, 1, 6, 5).Param()
	bb := Randn(rng, 1, 5).Param()
	c := Randn(rng, 1, 3, 5)
	loss := func() *Tensor {
		for _, p := range []*Tensor{a, wa, ba, b, wb, bb} {
			p.ZeroGrad()
		}
		return Mean(Mul(LinearPairSum(a, wa, ba, b, wb, bb), c))
	}
	for name, p := range map[string]*Tensor{
		"A": a, "WA": wa, "BA": ba, "B": b, "WB": wb, "BB": bb,
	} {
		checkGrad(t, "LinearPairSum/"+name, p, loss, 1e-5)
	}
}

// TestGradScaledDotAttention finite-difference-checks the fused attention
// gradients for q, k, and v, with and without a causal mask (the masked
// case exercises the prefix-skip kernels).
func TestGradScaledDotAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, tc := range []struct {
		name string
		mask *Tensor
	}{
		{"NoMask", nil},
		{"Causal", CausalMask(5)},
	} {
		q := Randn(rng, 1, 3, 5, 4).Param()
		k := Randn(rng, 1, 3, 5, 4).Param()
		v := Randn(rng, 1, 3, 5, 4).Param()
		c := Randn(rng, 1, 3, 5, 4)
		loss := func() *Tensor {
			q.ZeroGrad()
			k.ZeroGrad()
			v.ZeroGrad()
			return Mean(Mul(ScaledDotAttention(q, k, v, tc.mask, 0.5), c))
		}
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/Q", q, loss, 1e-5)
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/K", k, loss, 1e-5)
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/V", v, loss, 1e-5)
	}
}

// TestFusedMatchesReference compares each fused op's forward values and
// input gradients with the unfused chain of standalone ops it replaces.
// Forward kernels preserve per-element summation order, so outputs agree
// exactly; backward kernels regroup additions, so gradients are held to the
// documented 1e-9.
func TestFusedMatchesReference(t *testing.T) {
	type run struct{ out, gx, gw []float64 }
	eval := func(seed int64, build func(x, w, b *Tensor) *Tensor) run {
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 1, 7, 6).Param()
		w := Randn(rng, 1, 6, 5).Param()
		b := Randn(rng, 1, 5).Param()
		c := Randn(rng, 1, 7, 5)
		y := build(x, w, b)
		Mean(Mul(y, c)).Backward()
		return run{
			out: append([]float64(nil), y.Data...),
			gx:  append([]float64(nil), x.Grad...),
			gw:  append([]float64(nil), w.Grad...),
		}
	}
	type build func(x, w, b *Tensor) *Tensor
	for _, tc := range []struct {
		name       string
		fused, ref build
	}{
		{"LinearFused/Identity",
			func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActIdentity) },
			func(x, w, b *Tensor) *Tensor { return linearRef(x, w, b, ActIdentity) }},
		{"LinearFused/ReLU",
			func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActReLU) },
			func(x, w, b *Tensor) *Tensor { return linearRef(x, w, b, ActReLU) }},
		{"LinearFused/GELU",
			func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActGELU) },
			func(x, w, b *Tensor) *Tensor { return linearRef(x, w, b, ActGELU) }},
		{"LinearFused/NoBias",
			func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, nil, ActTanh) },
			func(x, w, b *Tensor) *Tensor { return linearRef(x, w, nil, ActTanh) }},
		{"AddSigmoid",
			func(x, w, b *Tensor) *Tensor { return AddSigmoid(MatMul(x, w), AddBias(MatMul(x, w), b)) },
			func(x, w, b *Tensor) *Tensor { return Sigmoid(Add(MatMul(x, w), AddBias(MatMul(x, w), b))) }},
		{"AddTanh",
			func(x, w, b *Tensor) *Tensor { return AddTanh(MatMul(x, w), AddBias(MatMul(x, w), b)) },
			func(x, w, b *Tensor) *Tensor { return Tanh(Add(MatMul(x, w), AddBias(MatMul(x, w), b))) }},
		{"Lerp",
			func(x, w, b *Tensor) *Tensor {
				y := MatMul(x, w)
				return Lerp(y, AddBias(y, b), Sigmoid(y))
			},
			func(x, w, b *Tensor) *Tensor {
				y := MatMul(x, w)
				return lerpRef(y, AddBias(y, b), Sigmoid(y))
			}},
		{"LinearPairSum",
			func(x, w, b *Tensor) *Tensor { return LinearPairSum(x, w, b, Tanh(x), w, b) },
			func(x, w, b *Tensor) *Tensor { return linearPairSumRef(x, w, b, Tanh(x), w, b) }},
	} {
		fast := eval(21, tc.fused)
		ref := eval(21, tc.ref)
		diff := func(kind string, got, want []float64) {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s: %s[%d] fused %v, reference %v", tc.name, kind, i, got[i], want[i])
				}
			}
		}
		diff("out", fast.out, ref.out)
		diff("gx", fast.gx, ref.gx)
		diff("gw", fast.gw, ref.gw)
	}
}

// TestScaledDotAttentionMatchesReference compares the fused attention node
// against the unfused Transpose/MatMul/Scale/MaskedFill/Softmax/MatMul
// chain: forward bit-equal, gradients within 1e-9. The causal mask takes
// the prefix-skip kernels, the scattered mask forces the dense fallback,
// and dh=3 with tq=6 exercises the blocking remainder paths.
func TestScaledDotAttentionMatchesReference(t *testing.T) {
	scattered := Zeros(6, 6)
	for _, ij := range [][2]int{{0, 2}, {1, 0}, {3, 5}, {5, 4}} {
		scattered.Data[ij[0]*6+ij[1]] = 1
	}
	for _, tc := range []struct {
		name string
		mask *Tensor
	}{
		{"NoMask", nil},
		{"Causal", CausalMask(6)},
		{"Scattered", scattered},
	} {
		type run struct{ out, gq, gk, gv []float64 }
		eval := func(attend func(q, k, v, mask *Tensor, scale float64) *Tensor) run {
			rng := rand.New(rand.NewSource(23))
			q := Randn(rng, 1, 4, 6, 3).Param()
			k := Randn(rng, 1, 4, 6, 3).Param()
			v := Randn(rng, 1, 4, 6, 3).Param()
			c := Randn(rng, 1, 4, 6, 3)
			y := attend(q, k, v, tc.mask, 0.5)
			Mean(Mul(y, c)).Backward()
			return run{
				out: append([]float64(nil), y.Data...),
				gq:  append([]float64(nil), q.Grad...),
				gk:  append([]float64(nil), k.Grad...),
				gv:  append([]float64(nil), v.Grad...),
			}
		}
		fast := eval(ScaledDotAttention)
		ref := eval(scaledDotAttentionRef)
		for i := range ref.out {
			if fast.out[i] != ref.out[i] {
				t.Fatalf("%s: out[%d] fused %v, reference %v (want bit-equal)", tc.name, i, fast.out[i], ref.out[i])
			}
		}
		for kind, pair := range map[string][2][]float64{
			"gq": {fast.gq, ref.gq}, "gk": {fast.gk, ref.gk}, "gv": {fast.gv, ref.gv},
		} {
			for i := range pair[1] {
				if math.Abs(pair[0][i]-pair[1][i]) > 1e-9 {
					t.Fatalf("%s: %s[%d] fused %v, reference %v", tc.name, kind, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestMatMulKernelsOddShapes runs the blocked matmul kernels and the naive
// reference kernels on the same slices: forward bit-equal, backward within
// 1e-9. The shapes cover the 4-row blocking remainders (every m around the
// block size, including shapes smaller than one block), the dot form
// (m >= 16, k >= 8), and the unrolled n == 8 dB kernel; zeroed entries of
// a exercise the zero-skip branches. A second forward pass starts from a
// non-zero dst, as LinearFused's bias rows do: there the axpy and dot forms
// round differently, so each shape is held to the reference of the form
// its shape selects.
func TestMatMulKernelsOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randSlice := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 19} {
		for _, k := range []int{1, 3, 8} {
			for _, n := range []int{1, 5, 8, 16} {
				a, b, g := randSlice(m*k), randSlice(k*n), randSlice(m*n)
				for i := 0; i < len(a); i += 5 {
					a[i] = 0
				}
				fOut, rOut := make([]float64, m*n), make([]float64, m*n)
				matmulFwd(fOut, a, b, m, k, n)
				matmulFwdRef(rOut, a, b, m, k, n)
				for i := range rOut {
					if fOut[i] != rOut[i] {
						t.Fatalf("m=%d k=%d n=%d: forward[%d] fast %v, reference %v (want bit-equal)",
							m, k, n, i, fOut[i], rOut[i])
					}
				}
				fOut = randSlice(m * n)
				copy(rOut, fOut)
				matmulFwd(fOut, a, b, m, k, n)
				if m >= 16 && k >= 8 {
					matmulFwdDotRef(rOut, a, b, m, k, n)
				} else {
					matmulFwdRef(rOut, a, b, m, k, n)
				}
				for i := range rOut {
					if math.Float64bits(fOut[i]) != math.Float64bits(rOut[i]) {
						t.Fatalf("m=%d k=%d n=%d: forward[%d] onto non-zero dst: fast %v, reference %v (want bit-equal)",
							m, k, n, i, fOut[i], rOut[i])
					}
				}
				fGA, rGA := make([]float64, m*k), make([]float64, m*k)
				bt := make([]float64, k*n)
				packTranspose(bt, b, k, n)
				matmulBwdAPacked(fGA, g, bt, m, k, n)
				matmulBwdARef(rGA, g, b, m, k, n)
				for i := range rGA {
					if math.Abs(fGA[i]-rGA[i]) > 1e-9 {
						t.Fatalf("m=%d k=%d n=%d: dA[%d] fast %v, reference %v", m, k, n, i, fGA[i], rGA[i])
					}
				}
				fGB, rGB := make([]float64, k*n), make([]float64, k*n)
				matmulBwdB(fGB, a, g, m, k, n)
				matmulBwdBRef(rGB, a, g, m, k, n)
				for i := range rGB {
					if math.Abs(fGB[i]-rGB[i]) > 1e-9 {
						t.Fatalf("m=%d k=%d n=%d: dB[%d] fast %v, reference %v", m, k, n, i, fGB[i], rGB[i])
					}
				}
			}
		}
	}
}

// TestArenaRecycling verifies the arena contract: Reset recycles buffers
// for same-class reuse, buffers come back zeroed, and Release returns
// everything so a fresh arena still works.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()
	defer a.Release()
	b1 := a.alloc(100)
	for i := range b1 {
		b1[i] = 1
	}
	p1 := &b1[0]
	a.Reset()
	b2 := a.alloc(100)
	if &b2[0] != p1 {
		t.Fatalf("alloc after Reset did not reuse the recycled buffer")
	}
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	// A second same-class alloc without Reset must get distinct memory.
	b3 := a.alloc(100)
	if &b3[0] == &b2[0] {
		t.Fatalf("live buffer handed out twice")
	}
	a.Release()
	b4 := a.alloc(100)
	for i, v := range b4 {
		if v != 0 {
			t.Fatalf("post-Release buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestAllocFromFallbacks(t *testing.T) {
	if got := allocFrom(nil, 10); len(got) != 10 {
		t.Fatalf("allocFrom(nil) length %d", len(got))
	}
	// Oversized requests bypass the size classes but still work.
	a := NewArena()
	defer a.Release()
	huge := a.alloc((1 << maxClassShift) + 1)
	if len(huge) != (1<<maxClassShift)+1 {
		t.Fatalf("oversized alloc length %d", len(huge))
	}
}

// TestArenaPropagation verifies the arena tag flows from an input through
// ops to intermediates, but never onto untagged constants.
func TestArenaPropagation(t *testing.T) {
	a := NewArena()
	defer a.Release()
	rng := rand.New(rand.NewSource(41))
	x := Randn(rng, 1, 3, 4).InArena(a)
	w := Randn(rng, 1, 4, 5).Param()
	y := MatMul(x, w)
	if y.arena != a {
		t.Fatalf("MatMul output did not inherit the input arena")
	}
	z := ReLU(y)
	if z.arena != a {
		t.Fatalf("ReLU output did not inherit the arena")
	}
	if w.arena != nil {
		t.Fatalf("parameter unexpectedly tagged with an arena")
	}
}
