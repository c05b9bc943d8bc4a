package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Add returns a + b (identical shapes).
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + b.Data[i]
	}
	return result(a.Shape, data, func(out *Tensor) {
		if a.requiresGrad {
			addAcc(a.Grad, out.Grad)
		}
		if b.requiresGrad {
			addAcc(b.Grad, out.Grad)
		}
	}, a, b)
}

// Sub returns a − b.
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		data[i] = a.Data[i] - b.Data[i]
	}
	return result(a.Shape, data, func(out *Tensor) {
		if a.requiresGrad {
			addAcc(a.Grad, out.Grad)
		}
		if b.requiresGrad {
			for i, g := range out.Grad {
				b.Grad[i] -= g
			}
		}
	}, a, b)
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * b.Data[i]
	}
	return result(a.Shape, data, func(out *Tensor) {
		if a.requiresGrad {
			for i, g := range out.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.requiresGrad {
			for i, g := range out.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}, a, b)
}

// Scale returns s·a.
func Scale(a *Tensor, s float64) *Tensor {
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * s
	}
	return result(a.Shape, data, func(out *Tensor) {
		if a.requiresGrad {
			for i, g := range out.Grad {
				a.Grad[i] += g * s
			}
		}
	}, a)
}

// AddBias adds a vector bias (length = last dim) to every row of a.
func AddBias(a, bias *Tensor) *Tensor {
	d := a.Dim(-1)
	if len(bias.Shape) != 1 || bias.Shape[0] != d {
		panic(fmt.Sprintf("nn: bias shape %v for input %v", bias.Shape, a.Shape))
	}
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + bias.Data[i%d]
	}
	return result(a.Shape, data, func(out *Tensor) {
		if a.requiresGrad {
			addAcc(a.Grad, out.Grad)
		}
		if bias.requiresGrad {
			for i, g := range out.Grad {
				bias.Grad[i%d] += g
			}
		}
	}, a, bias)
}

// MatMul returns the batched matrix product. a has shape [..., m, k]; b has
// shape [k, n] (shared weights) or the same leading batch dims as a with
// shape [..., k, n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) < 2 || len(b.Shape) < 2 {
		panic("nn: MatMul needs at least 2-D operands")
	}
	m, k := a.Dim(-2), a.Dim(-1)
	var n int
	shared := len(b.Shape) == 2
	if shared {
		if b.Shape[0] != k {
			panic(fmt.Sprintf("nn: MatMul inner dims %v x %v", a.Shape, b.Shape))
		}
		n = b.Shape[1]
	} else {
		if len(b.Shape) != len(a.Shape) || b.Dim(-2) != k {
			panic(fmt.Sprintf("nn: MatMul shapes %v x %v", a.Shape, b.Shape))
		}
		for i := 0; i < len(a.Shape)-2; i++ {
			if a.Shape[i] != b.Shape[i] {
				panic(fmt.Sprintf("nn: MatMul batch dims %v x %v", a.Shape, b.Shape))
			}
		}
		n = b.Dim(-1)
	}
	batch := Numel(a.Shape[:len(a.Shape)-2])
	outShape := append(append([]int(nil), a.Shape[:len(a.Shape)-2]...), m, n)
	data := allocFrom(arenaOf2(a, b), batch*m*n)
	if shared {
		// One weight matrix for every batch entry: collapse the batch into
		// the row dimension so the blocked kernel sees one tall matmul.
		matmulFwd(data, a.Data, b.Data, batch*m, k, n)
	} else {
		for t := 0; t < batch; t++ {
			matmulFwd(data[t*m*n:(t+1)*m*n], a.Data[t*m*k:(t+1)*m*k], b.Data[t*k*n:(t+1)*k*n], m, k, n)
		}
	}
	return result(outShape, data, func(out *Tensor) {
		if a.requiresGrad {
			// dA = dOut · Bᵀ
			bt := allocFromUninit(out.arena, k*n)
			if shared {
				packTranspose(bt, b.Data, k, n)
				matmulBwdAPacked(a.Grad, out.Grad, bt, batch*m, k, n)
			} else {
				for t := 0; t < batch; t++ {
					packTranspose(bt, b.Data[t*k*n:(t+1)*k*n], k, n)
					matmulBwdAPacked(a.Grad[t*m*k:(t+1)*m*k], out.Grad[t*m*n:(t+1)*m*n],
						bt, m, k, n)
				}
			}
		}
		if b.requiresGrad {
			// dB = Aᵀ · dOut
			if shared {
				matmulBwdB(b.Grad, a.Data, out.Grad, batch*m, k, n)
			} else {
				for t := 0; t < batch; t++ {
					matmulBwdB(b.Grad[t*k*n:(t+1)*k*n], a.Data[t*m*k:(t+1)*m*k],
						out.Grad[t*m*n:(t+1)*m*n], m, k, n)
				}
			}
		}
	}, a, b)
}

// Transpose swaps the last two dimensions.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) < 2 {
		panic("nn: Transpose needs at least 2-D input")
	}
	m, n := a.Dim(-2), a.Dim(-1)
	batch := Numel(a.Shape[:len(a.Shape)-2])
	outShape := append(append([]int(nil), a.Shape[:len(a.Shape)-2]...), n, m)
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for t := 0; t < batch; t++ {
		base := t * m * n
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				data[base+j*m+i] = a.Data[base+i*n+j]
			}
		}
	}
	return result(outShape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for t := 0; t < batch; t++ {
			base := t * m * n
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					a.Grad[base+i*n+j] += out.Grad[base+j*m+i]
				}
			}
		}
	}, a)
}

// Reshape returns a view-copy of a with a new shape of equal element count.
func Reshape(a *Tensor, shape ...int) *Tensor {
	if Numel(shape) != len(a.Data) {
		panic(fmt.Sprintf("nn: reshape %v to %v", a.Shape, shape))
	}
	data := allocFromUninit(arenaOf(a), len(a.Data))
	copy(data, a.Data)
	return result(shape, data, func(out *Tensor) {
		if a.requiresGrad {
			addAcc(a.Grad, out.Grad)
		}
	}, a)
}

// Concat concatenates tensors along the given axis (all other dims equal).
func Concat(axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: Concat of nothing")
	}
	if len(ts) == 1 {
		return ts[0]
	}
	nd := len(ts[0].Shape)
	if axis < 0 {
		axis += nd
	}
	outShape := append([]int(nil), ts[0].Shape...)
	total := 0
	for _, t := range ts {
		if len(t.Shape) != nd {
			panic("nn: Concat rank mismatch")
		}
		for d := 0; d < nd; d++ {
			if d != axis && t.Shape[d] != outShape[d] {
				panic(fmt.Sprintf("nn: Concat shape mismatch %v vs %v", t.Shape, outShape))
			}
		}
		total += t.Shape[axis]
	}
	outShape[axis] = total
	outer := Numel(outShape[:axis])
	inner := Numel(outShape[axis+1:])
	data := allocFromUninit(arenaOf(ts[0]), Numel(outShape))
	offsets := make([]int, len(ts))
	off := 0
	for i, t := range ts {
		offsets[i] = off
		off += t.Shape[axis]
	}
	for ti, t := range ts {
		sz := t.Shape[axis]
		for o := 0; o < outer; o++ {
			src := o * sz * inner
			dst := (o*total + offsets[ti]) * inner
			copy(data[dst:dst+sz*inner], t.Data[src:src+sz*inner])
		}
	}
	parents := append([]*Tensor(nil), ts...)
	return result(outShape, data, func(out *Tensor) {
		for ti, t := range parents {
			if !t.requiresGrad {
				continue
			}
			sz := t.Shape[axis]
			for o := 0; o < outer; o++ {
				src := o * sz * inner
				dst := (o*total + offsets[ti]) * inner
				addAcc(t.Grad[src:src+sz*inner], out.Grad[dst:dst+sz*inner])
			}
		}
	}, parents...)
}

// Narrow slices length elements starting at start along the given axis.
func Narrow(a *Tensor, axis, start, length int) *Tensor {
	nd := len(a.Shape)
	if axis < 0 {
		axis += nd
	}
	if start < 0 || length <= 0 || start+length > a.Shape[axis] {
		panic(fmt.Sprintf("nn: Narrow [%d:%d) on axis %d of %v", start, start+length, axis, a.Shape))
	}
	outShape := append([]int(nil), a.Shape...)
	outShape[axis] = length
	outer := Numel(a.Shape[:axis])
	inner := Numel(a.Shape[axis+1:])
	full := a.Shape[axis]
	data := allocFromUninit(arenaOf(a), Numel(outShape))
	for o := 0; o < outer; o++ {
		src := (o*full + start) * inner
		dst := o * length * inner
		copy(data[dst:dst+length*inner], a.Data[src:src+length*inner])
	}
	return result(outShape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for o := 0; o < outer; o++ {
			src := (o*full + start) * inner
			dst := o * length * inner
			addAcc(a.Grad[src:src+length*inner], out.Grad[dst:dst+length*inner])
		}
	}, a)
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	data := allocFrom(arenaOf(a), len(a.Data))
	for i, v := range a.Data {
		if v > 0 {
			data[i] = v
		}
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			if a.Data[i] > 0 {
				a.Grad[i] += g
			}
		}
	}, a)
}

// GELU applies the Gaussian error linear unit (tanh approximation).
func GELU(a *Tensor) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/pi)
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i, x := range a.Data {
		data[i] = 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			x := a.Data[i]
			t := math.Tanh(c * (x + 0.044715*x*x*x))
			dt := (1 - t*t) * c * (1 + 3*0.044715*x*x)
			a.Grad[i] += g * (0.5*(1+t) + 0.5*x*dt)
		}
	}, a)
}

// Sigmoid applies 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i, v := range a.Data {
		data[i] = 1 / (1 + math.Exp(-v))
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			s := out.Data[i]
			a.Grad[i] += g * s * (1 - s)
		}
	}, a)
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i, v := range a.Data {
		data[i] = math.Tanh(v)
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			t := out.Data[i]
			a.Grad[i] += g * (1 - t*t)
		}
	}, a)
}

// Softmax applies a numerically stable softmax over the last dimension.
func Softmax(a *Tensor) *Tensor {
	d := a.Dim(-1)
	rows := len(a.Data) / d
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for r := 0; r < rows; r++ {
		row := a.Data[r*d : (r+1)*d]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		o := data[r*d : (r+1)*d]
		for i, v := range row {
			o[i] = math.Exp(v - maxV)
			sum += o[i]
		}
		for i := range o {
			o[i] /= sum
		}
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for r := 0; r < rows; r++ {
			o := out.Data[r*d : (r+1)*d]
			g := out.Grad[r*d : (r+1)*d]
			var dot float64
			for i := range o {
				dot += o[i] * g[i]
			}
			ag := a.Grad[r*d : (r+1)*d]
			for i := range o {
				ag[i] += o[i] * (g[i] - dot)
			}
		}
	}, a)
}

// LayerNorm normalises the last dimension to zero mean and unit variance
// and applies learnable gain and bias (each of length = last dim).
func LayerNorm(a, gain, bias *Tensor, eps float64) *Tensor {
	d := a.Dim(-1)
	if gain.Shape[0] != d || bias.Shape[0] != d {
		panic("nn: LayerNorm parameter shapes")
	}
	rows := len(a.Data) / d
	ar := arenaOf(a)
	data := allocFromUninit(ar, len(a.Data))
	norm := allocFromUninit(ar, len(a.Data)) // cached normalised values
	invStd := allocFromUninit(ar, rows)
	for r := 0; r < rows; r++ {
		row := a.Data[r*d : (r+1)*d]
		var m float64
		for _, v := range row {
			m += v
		}
		m /= float64(d)
		var v float64
		for _, x := range row {
			v += (x - m) * (x - m)
		}
		v /= float64(d)
		is := 1 / math.Sqrt(v+eps)
		invStd[r] = is
		for i, x := range row {
			nv := (x - m) * is
			norm[r*d+i] = nv
			data[r*d+i] = nv*gain.Data[i] + bias.Data[i]
		}
	}
	return result(a.Shape, data, func(out *Tensor) {
		// Fused backward: one pass per row covers the gain, bias, and input
		// gradients, with a single scratch buffer shared by all rows
		// (previously a fresh gy slice was allocated per row).
		var gy []float64
		if a.requiresGrad {
			gy = allocFromUninit(out.arena, d)
		}
		for r := 0; r < rows; r++ {
			g := out.Grad[r*d : (r+1)*d]
			nv := norm[r*d : (r+1)*d]
			if gain.requiresGrad {
				for i := range g {
					gain.Grad[i] += g[i] * nv[i]
				}
			}
			if bias.requiresGrad {
				addAcc(bias.Grad, g)
			}
			if a.requiresGrad {
				// dL/dx = invStd/d · (d·gy − Σgy − n·Σ(gy·n)), gy = g·gain
				var sumGy, sumGyN float64
				for i := range g {
					gy[i] = g[i] * gain.Data[i]
					sumGy += gy[i]
					sumGyN += gy[i] * nv[i]
				}
				is := invStd[r]
				ag := a.Grad[r*d : (r+1)*d]
				for i := range gy {
					ag[i] += is / float64(d) * (float64(d)*gy[i] - sumGy - nv[i]*sumGyN)
				}
			}
		}
	}, a, gain, bias)
}

// Dropout zeros elements with probability p during training and rescales
// the survivors by 1/(1−p); in evaluation mode it is the identity.
func Dropout(a *Tensor, p float64, rng *rand.Rand, train bool) *Tensor {
	if !train || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("nn: dropout probability must be < 1")
	}
	keep := 1 - p
	ar := arenaOf(a)
	mask := allocFrom(ar, len(a.Data))
	data := allocFromUninit(ar, len(a.Data))
	for i := range mask {
		if rng.Float64() < keep {
			mask[i] = 1 / keep
		}
		data[i] = a.Data[i] * mask[i]
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			a.Grad[i] += g * mask[i]
		}
	}, a)
}

// Mean returns the scalar mean of all elements.
func Mean(a *Tensor) *Tensor {
	var s float64
	for _, v := range a.Data {
		s += v
	}
	n := float64(len(a.Data))
	return result([]int{1}, []float64{s / n}, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		g := out.Grad[0] / n
		for i := range a.Grad {
			a.Grad[i] += g
		}
	}, a)
}

// MSE returns the scalar mean squared error between pred and target
// (target is treated as a constant).
func MSE(pred, target *Tensor) *Tensor {
	sameShape(pred, target)
	var s float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		s += d * d
	}
	n := float64(len(pred.Data))
	return result([]int{1}, []float64{s / n}, func(out *Tensor) {
		if !pred.requiresGrad {
			return
		}
		g := out.Grad[0] * 2 / n
		for i := range pred.Data {
			pred.Grad[i] += g * (pred.Data[i] - target.Data[i])
		}
	}, pred)
}

// MaskedFill sets positions where mask != 0 to value (mask is constant).
// The mask must have the same shape as a.
func MaskedFill(a, mask *Tensor, value float64) *Tensor {
	sameShape(a, mask)
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i, v := range a.Data {
		if mask.Data[i] != 0 {
			data[i] = value
		} else {
			data[i] = v
		}
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			if mask.Data[i] == 0 {
				a.Grad[i] += g
			}
		}
	}, a)
}
