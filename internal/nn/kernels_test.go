package nn

import (
	"math"
	"math/rand"
	"testing"
)

// kernelSpecials are the values the differential kernel tests mix into
// their operands: signed zeros (the zero-skip treats both as zero, and
// 0 + -0 keeps its sign only in the right order), subnormals, and
// magnitudes whose products overflow to ±Inf and whose sums then turn NaN.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-308,
	1e300, -1e300, 1, -1, 0.1, -3.5,
}

// checkKernelsMatchGo runs every dispatched matmul kernel and its Go form
// on copies of the same operands and fails unless every output is equal
// by math.Float64bits. Without AVX2 the dispatchers are the Go forms and
// the check passes trivially. a is [m,k] (and serves as matmulNT's [m,d]
// with d = k), b is [k,n], bn is [n,k], g is [m,n] and dst seeds every
// destination, so accumulating kernels start from non-zero values.
func checkKernelsMatchGo(t testing.TB, m, k, n int, a, b, bn, g, dst []float64) {
	t.Helper()
	same := func(kernel string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s m=%d k=%d n=%d: [%d] = %v (%#x), Go form %v (%#x)", kernel, m, k, n, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	seed := func(n int) ([]float64, []float64) {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = dst[i%len(dst)]
		}
		copy(y, x)
		return x, y
	}
	got, want := seed(m * n)
	matmulFwd(got, a, b, m, k, n)
	matmulFwdGo(want, a, b, m, k, n)
	same("matmulFwd", got, want)

	got, want = seed(m * n)
	bt := make([]float64, n*k)
	matmulNT(got, a, bn, bt, m, n, k)
	matmulNTGo(want, a, bn, m, n, k)
	same("matmulNT", got, want)

	got, want = seed(m * n)
	matmulNTStore(got, a, bn, bt, m, n, k)
	matmulNTStoreGo(want, a, bn, m, n, k)
	same("matmulNTStore", got, want)

	got, want = seed(m * k)
	bt = make([]float64, n*k)
	packTranspose(bt, b, k, n)
	matmulBwdAPacked(got, g, bt, m, k, n)
	matmulBwdAPackedGo(want, g, bt, m, k, n)
	same("matmulBwdAPacked", got, want)

	got, want = seed(k * n)
	matmulBwdB(got, a, g, m, k, n)
	matmulBwdBGo(want, a, g, m, k, n)
	same("matmulBwdB", got, want)
}

// TestKernelsMatchGo holds the AVX2 kernels to their Go forms bit for bit
// across tile remainders in every dimension: m around the 4-row block, k
// around the unrolled depth 8, n around the 4- and 8-column tiles. The
// operands mix normal values with kernelSpecials; every fifth column of a
// and every third column of g is zeroed in all rows, so the four-way
// zero-skips of matmulBwdB and matmulBwdAPacked fire. Row 1 of a is all -0
// against an all-ones column of b and row of bn, so an output sums only -0
// products and its sign shows whether the sum starts from +0 or from the
// first product.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			} else {
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 19, 33} {
		for _, k := range []int{1, 3, 8, 9, 32, 96} {
			for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 16, 24, 64} {
				a := fill(m * k)
				for i := 0; i < m; i++ {
					for p := 0; p < k; p += 5 {
						a[i*k+p] = kernelSpecials[i%2] // ±0
					}
				}
				b, bn := fill(k*n), fill(n*k)
				if m > 1 {
					for p := 0; p < k; p++ {
						a[k+p] = kernelSpecials[1]
						b[p*n] = 1
						bn[p] = 1
					}
				}
				g := fill(m * n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j += 3 {
						g[i*n+j] = kernelSpecials[(i+1)%2]
					}
				}
				checkKernelsMatchGo(t, m, k, n, a, b, bn, g, fill(m*n))
			}
		}
	}
}

// FuzzMatmulKernels draws shapes and operands from the fuzz input and
// holds every AVX2 kernel to its Go form bit for bit. The first three bytes
// pick m, k and n in [1, 40]; each later pair of bytes yields one value,
// either a kernelSpecials entry or a small multiple of 1/8, cycled to fill
// the operands. NaN inputs are excluded: which of two NaN operands x86
// propagates depends on operand order, which Go does not fix.
func FuzzMatmulKernels(f *testing.F) {
	f.Add([]byte{16, 8, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{19, 9, 13, 0, 0, 0, 1, 0, 6, 0, 7, 200, 9})
	f.Add([]byte{5, 1, 4, 3, 250, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m, k, n := 1+int(data[0])%40, 1+int(data[1])%40, 1+int(data[2])%40
		vals := data[3:]
		pool := make([]float64, len(vals)/2)
		for i := range pool {
			sel, v := vals[2*i], vals[2*i+1]
			if sel%4 == 0 {
				pool[i] = kernelSpecials[int(v)%len(kernelSpecials)]
			} else {
				pool[i] = float64(int8(v)) / 8
			}
		}
		next := 0
		fill := func(size int) []float64 {
			s := make([]float64, size)
			for i := range s {
				s[i] = pool[next%len(pool)]
				next++
			}
			return s
		}
		checkKernelsMatchGo(t, m, k, n, fill(m*k), fill(k*n), fill(n*k), fill(m*n), fill(m*n))
	})
}
