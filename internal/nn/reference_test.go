package nn

import "fmt"

// Reference implementations: the original naive kernels and the unfused op
// chains the blocked kernels and fused ops replaced. They are the oracles of
// the differential tests — forward results must match them bit for bit,
// backward results within 1e-9 — and are never run outside tests.

// matmulFwdRef is the original triple loop (zero-skip on A elements).
func matmulFwdRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			bRow := b[p*n : (p+1)*n]
			oRow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				oRow[j] += av * bRow[j]
			}
		}
	}
}

// matmulFwdDotRef is the naive dot form of dst += a·b: each output sums
// its products from zero in p-ascending order and is added to dst once.
func matmulFwdDotRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] += s
		}
	}
}

// matmulBwdARef is the original dot-product formulation of dA += g·bᵀ
// reading b in its native [k,n] layout.
func matmulBwdARef(dA, g, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			var s float64
			bRow := b[p*n : (p+1)*n]
			gRow := g[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				s += gRow[j] * bRow[j]
			}
			dA[i*k+p] += s
		}
	}
}

// matmulBwdBRef is the original dB += aᵀ·g loop (p-outer, strided reads of
// a's columns).
func matmulBwdBRef(dB, a, g []float64, m, k, n int) {
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			gRow := g[i*n : (i+1)*n]
			bgRow := dB[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				bgRow[j] += av * gRow[j]
			}
		}
	}
}

// applyActRef applies the activation as a standalone op.
func applyActRef(t *Tensor, act Activation) *Tensor {
	switch act {
	case ActIdentity:
		return t
	case ActReLU:
		return ReLU(t)
	case ActSigmoid:
		return Sigmoid(t)
	case ActTanh:
		return Tanh(t)
	case ActGELU:
		return GELU(t)
	}
	panic(fmt.Sprintf("nn: unknown activation %d", act))
}

// linearRef is LinearFused's unfused chain: MatMul, AddBias, activation.
func linearRef(x, w, b *Tensor, act Activation) *Tensor {
	y := MatMul(x, w)
	if b != nil {
		y = AddBias(y, b)
	}
	return applyActRef(y, act)
}

// lerpRef is Lerp's unfused chain: a ones tensor, Sub, two Muls and an Add.
func lerpRef(a, b, w *Tensor) *Tensor {
	ones := Full(1, w.Shape...)
	return Add(Mul(Sub(ones, w), a), Mul(w, b))
}

// linearPairSumRef is LinearPairSum's unfused chain: two projections and
// their sum.
func linearPairSumRef(a, wa, ba, b, wb, bb *Tensor) *Tensor {
	return Add(AddBias(MatMul(a, wa), ba), AddBias(MatMul(b, wb), bb))
}

// scaledDotAttentionRef is ScaledDotAttention's unfused chain: Transpose,
// MatMul, Scale, mask expansion, MaskedFill, Softmax and MatMul.
func scaledDotAttentionRef(q, k, v, mask *Tensor, scale float64) *Tensor {
	scores := Scale(MatMul(q, Transpose(k)), scale)
	if mask != nil {
		bh, tq, tk := scores.Shape[0], scores.Shape[1], scores.Shape[2]
		big := ZerosLike(scores, bh, tq, tk)
		for i := 0; i < bh; i++ {
			copy(big.Data[i*tq*tk:(i+1)*tq*tk], mask.Data)
		}
		scores = MaskedFill(scores, big, -1e9)
	}
	return MatMul(Softmax(scores), v)
}
