package nn

// Matmul kernels. They register-block over four rows of A so each
// streamed row of B (or of the packed Bᵀ) is reused four times from
// registers, and slice every row once up front so the compiler can
// eliminate bounds checks in the inner loops.
//
// On amd64 CPUs with AVX2 (useAVX2) the hot kernels run the assembly
// micro-kernels of kernels_amd64.s on their 4-row, 4- or 8-column tiles,
// and Go computes the row and column remainders. The assembly multiplies and
// adds (never FMA) in the Go kernels' order, so both paths give the same
// bits; the Go forms (the *Go functions) are the fallback elsewhere and the
// oracles of the differential tests.

// getScratch borrows a transient kernel workspace (packed transposes) from
// the global size-class pools, so kernels without an arena in reach stay
// allocation-free in steady state. Pass the returned handle to putScratch
// when done; a nil handle means the request was too large to pool.
func getScratch(n int) (*[]float64, []float64) {
	c := classIndex(n)
	if c < 0 {
		return nil, make([]float64, n)
	}
	if v := classPools[c].Get(); v != nil {
		bp := v.(*[]float64)
		return bp, (*bp)[:n]
	}
	b := make([]float64, 1<<(c+minClassShift))
	return &b, b[:n]
}

func putScratch(bp *[]float64) {
	if bp != nil {
		classPools[classIndex(cap(*bp))].Put(bp)
	}
}

// matmulFwd accumulates dst += a·b for row-major a [m,k], b [k,n],
// dst [m,n]. dst must be pre-initialised (zero, or bias rows for the fused
// linear op).
//
// Large shapes (m >= 16 and k >= 8) take the dot form: each output sums its
// products from zero in p-ascending order and is then added to dst once.
// The axpy form below instead adds every product straight into dst, loading
// and storing each dst element k/4 times; the dot form measures 1.4–1.6×
// faster at training shapes. The two forms round differently whenever dst
// starts non-zero (the bias rows of LinearFused), so the m >= 16, k >= 8
// threshold is part of the output contract the forecast and grid goldens
// pin. Small or thin shapes keep the axpy form, whose zero-skip and lack of
// packing win there.
func matmulFwd(dst, a, b []float64, m, k, n int) {
	if m >= 16 && k >= 8 && useAVX2 {
		// The tile reads b's rows directly: no packed transpose.
		matmulDot(dst, a, b, m, k, n, dotAcc)
		return
	}
	matmulFwdGo(dst, a, b, m, k, n)
}

// matmulFwdGo is matmulFwd in Go: the dot form runs on a packed transpose
// of b through matmulNTGo.
func matmulFwdGo(dst, a, b []float64, m, k, n int) {
	if m >= 16 && k >= 8 {
		bp, bt := getScratch(k * n)
		packTranspose(bt, b, k, n)
		matmulNTGo(dst, a, bt, m, n, k)
		putScratch(bp)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := dst[(i+0)*n : (i+0)*n+n]
		r1 := dst[(i+1)*n : (i+1)*n+n]
		r2 := dst[(i+2)*n : (i+2)*n+n]
		r3 := dst[(i+3)*n : (i+3)*n+n]
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := b[p*n : p*n+n]
			for j, bv := range row {
				r0[j] += v0 * bv
				r1[j] += v1 * bv
				r2[j] += v2 * bv
				r3[j] += v3 * bv
			}
		}
	}
	for ; i < m; i++ {
		ri := dst[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := b[p*n : p*n+n]
			for j, bv := range row {
				ri[j] += av * bv
			}
		}
	}
}

// packTranspose writes bᵀ into dst: dst[j*k+p] = b[p*n+j]. The packed
// layout makes the p-inner loops of the dA kernels unit-stride.
func packTranspose(dst, b []float64, k, n int) {
	for p := 0; p < k; p++ {
		row := b[p*n : p*n+n]
		for j, v := range row {
			dst[j*k+p] = v
		}
	}
}

// matmulBwdAPacked accumulates dA += g·bᵀ with g [m,n] and bt the packed
// transpose of b ([n,k]): the inner p-loop is unit-stride over both the
// gradient row and the packed row, and the zero-skip check is hoisted to
// one test per gradient element. With AVX2 the four-row blocks run as the
// axpy tile on columns [0, k&^3) of dA; the column and row tails follow in
// Go, each element taking the same updates in the same order.
func matmulBwdAPacked(dA, g, bt []float64, m, k, n int) {
	if !useAVX2 || m < 4 || k < 4 || n == 0 {
		matmulBwdAPackedGo(dA, g, bt, m, k, n)
		return
	}
	m4, k4 := m&^3, k&^3
	gemmAVX2(dA[:m*k], g[:m*n], bt[:n*k], m, n, k, dotAxpy)
	if k4 < k {
		matmulBwdAPackedBlocks(dA, g, bt, m4, k, n, k4)
	}
	matmulBwdAPackedRows(dA, g, bt, m4, m, k, n)
}

// matmulBwdAPackedGo is matmulBwdAPacked in Go.
func matmulBwdAPackedGo(dA, g, bt []float64, m, k, n int) {
	m4 := m &^ 3
	matmulBwdAPackedBlocks(dA, g, bt, m4, k, n, 0)
	matmulBwdAPackedRows(dA, g, bt, m4, m, k, n)
}

// matmulBwdAPackedBlocks runs matmulBwdAPacked's four-row blocks over rows
// [0, m4) on the columns [p0, k) of dA.
func matmulBwdAPackedBlocks(dA, g, bt []float64, m4, k, n, p0 int) {
	for i := 0; i < m4; i += 4 {
		g0 := g[(i+0)*n : (i+0)*n+n]
		g1 := g[(i+1)*n : (i+1)*n+n]
		g2 := g[(i+2)*n : (i+2)*n+n]
		g3 := g[(i+3)*n : (i+3)*n+n]
		d0 := dA[(i+0)*k+p0 : (i+0)*k+k]
		d1 := dA[(i+1)*k+p0 : (i+1)*k+k]
		d2 := dA[(i+2)*k+p0 : (i+2)*k+k]
		d3 := dA[(i+3)*k+p0 : (i+3)*k+k]
		for j := 0; j < n; j++ {
			v0, v1, v2, v3 := g0[j], g1[j], g2[j], g3[j]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			bj := bt[j*k+p0 : j*k+k]
			for p, bv := range bj {
				d0[p] += v0 * bv
				d1[p] += v1 * bv
				d2[p] += v2 * bv
				d3[p] += v3 * bv
			}
		}
	}
}

// matmulBwdAPackedRows adds the single-row updates of rows [i0, m) to dA.
func matmulBwdAPackedRows(dA, g, bt []float64, i0, m, k, n int) {
	for i := i0; i < m; i++ {
		gi := g[i*n : i*n+n]
		di := dA[i*k : i*k+k]
		for j, gv := range gi {
			if gv == 0 {
				continue
			}
			bj := bt[j*k : j*k+k]
			for p, bv := range bj {
				di[p] += gv * bv
			}
		}
	}
}

// matmulBwdB accumulates dB += aᵀ·g with a [m,k], g [m,n]. It iterates
// rows of a (unit-stride reads, unlike the reference kernel's stride-k
// column walk) and blocks four rows per pass so each dB row is loaded and
// stored once per four gradient rows: dB[p][j] += a0p·g0[j] + a1p·g1[j] +
// a2p·g2[j] + a3p·g3[j], summed left to right. (A packed-dot form like
// matmulFwd's is a loss here: it needs both aᵀ and gᵀ, and those packs
// write [k,m]/[n,m] buffers at stride m — one cache miss per element at
// training shapes.)
//
// With AVX2 the four-row blocks run vectorised across j on columns
// [0, n&^3); every dB element still takes the same updates in the same
// order, so the column tail and the row tail can follow in Go.
func matmulBwdB(dB, a, g []float64, m, k, n int) {
	if !useAVX2 || m < 4 || k == 0 || n < 4 {
		matmulBwdBGo(dB, a, g, m, k, n)
		return
	}
	m4, n4 := m&^3, n&^3
	bwdBAVX2(dB[:k*n], a[:m*k], g[:m*n], m, k, n)
	if n4 < n {
		matmulBwdBBlocks(dB, a, g, m4, k, n, n4)
	}
	matmulBwdBRows(dB, a, g, m4, m, k, n)
}

// matmulBwdBGo is matmulBwdB in Go.
func matmulBwdBGo(dB, a, g []float64, m, k, n int) {
	if n == 8 {
		matmulBwdBN8(dB, a, g, m, k)
		return
	}
	m4 := m &^ 3
	matmulBwdBBlocks(dB, a, g, m4, k, n, 0)
	matmulBwdBRows(dB, a, g, m4, m, k, n)
}

// matmulBwdBBlocks runs matmulBwdB's four-row blocks over rows [0, m4) on
// the columns [j0, n) of dB.
func matmulBwdBBlocks(dB, a, g []float64, m4, k, n, j0 int) {
	for i := 0; i < m4; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		g0 := g[(i+0)*n+j0 : (i+0)*n+n]
		g1 := g[(i+1)*n+j0 : (i+1)*n+n]
		g2 := g[(i+2)*n+j0 : (i+2)*n+n]
		g3 := g[(i+3)*n+j0 : (i+3)*n+n]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := dB[p*n+j0 : p*n+n]
			for j := range row {
				row[j] += v0*g0[j] + v1*g1[j] + v2*g2[j] + v3*g3[j]
			}
		}
	}
}

// matmulBwdBRows adds the single-row updates of rows [i0, m) to dB.
func matmulBwdBRows(dB, a, g []float64, i0, m, k, n int) {
	for i := i0; i < m; i++ {
		ai := a[i*k : i*k+k]
		gi := g[i*n : i*n+n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			for j, gv := range gi {
				row[j] += av * gv
			}
		}
	}
}

// matmulBwdBN8 unrolls matmulBwdB's inner loop for n == 8, the per-head
// gradient width of attention dV and dK at the default d_model: at that
// width the loop counter and bounds checks dominate, and unrolling the
// eight per-element updates (each the same v0·g0+…+v3·g3 sum as the loop
// body, so results are identical) measures well ahead of the generic form.
func matmulBwdBN8(dB, a, g []float64, m, k int) {
	const n = 8
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		g0 := g[(i+0)*n : (i+0)*n+n]
		g1 := g[(i+1)*n : (i+1)*n+n]
		g2 := g[(i+2)*n : (i+2)*n+n]
		g3 := g[(i+3)*n : (i+3)*n+n]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			row[0] += v0*g0[0] + v1*g1[0] + v2*g2[0] + v3*g3[0]
			row[1] += v0*g0[1] + v1*g1[1] + v2*g2[1] + v3*g3[1]
			row[2] += v0*g0[2] + v1*g1[2] + v2*g2[2] + v3*g3[2]
			row[3] += v0*g0[3] + v1*g1[3] + v2*g2[3] + v3*g3[3]
			row[4] += v0*g0[4] + v1*g1[4] + v2*g2[4] + v3*g3[4]
			row[5] += v0*g0[5] + v1*g1[5] + v2*g2[5] + v3*g3[5]
			row[6] += v0*g0[6] + v1*g1[6] + v2*g2[6] + v3*g3[6]
			row[7] += v0*g0[7] + v1*g1[7] + v2*g2[7] + v3*g3[7]
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : i*k+k]
		gi := g[i*n : i*n+n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			row[0] += av * gi[0]
			row[1] += av * gi[1]
			row[2] += av * gi[2]
			row[3] += av * gi[3]
			row[4] += av * gi[4]
			row[5] += av * gi[5]
			row[6] += av * gi[6]
			row[7] += av * gi[7]
		}
	}
}

// dot modes of matmulDot and gemmAVX2.
const (
	dotAcc        = iota // dst += s, s summed from +0
	dotStore             // dst = s, s summed from +0
	dotStoreFirst        // dst = s, s summed from the first product
	dotAxpy              // matmulBwdAPacked's axpy tile (gemmAVX2 only)
)

// matmulDot computes every output of dst [m,n] as the p-ascending sum s of
// a[i][p]·b[p][j] over a [m,k] and b [k,n], then adds s to dst or stores
// it, by mode. This is the dot form of matmulFwd and, on a packed bᵀ, of
// the matmulNT kernels. The AVX2 tile covers rows [0, m&^3) and columns
// [0, n&^3); Go computes the rest with the same per-element sum.
func matmulDot(dst, a, b []float64, m, k, n, mode int) {
	m4, n4 := m&^3, n&^3
	if m4 > 0 && n4 > 0 && k > 0 {
		gemmAVX2(dst[:m*n], a[:m*k], b[:k*n], m, k, n, mode)
		dotRange(dst, a, b, 0, m4, n4, k, n, mode)
	} else {
		m4 = 0
	}
	dotRange(dst, a, b, m4, m, 0, k, n, mode)
}

// dotRange is matmulDot in Go on rows [i0, i1) and columns [j0, n).
func dotRange(dst, a, b []float64, i0, i1, j0, k, n, mode int) {
	for i := i0; i < i1; i++ {
		ai := a[i*k : i*k+k]
		di := dst[i*n : i*n+n]
		for j := j0; j < n; j++ {
			var s float64
			p := 0
			if mode == dotStoreFirst {
				s, p = ai[0]*b[j], 1
			}
			for ; p < k; p++ {
				s += ai[p] * b[p*n+j]
			}
			if mode == dotAcc {
				di[j] += s
			} else {
				di[j] = s
			}
		}
	}
}

// ntScratch returns the pack buffer of length n that matmulNT and
// matmulNTStore need for bᵀ on the AVX2 path, drawn from the op's arena;
// nil without AVX2, where the Go kernels read b directly.
func ntScratch(ar *Arena, n int) []float64 {
	if !useAVX2 {
		return nil
	}
	return allocFromUninit(ar, n)
}

// matmulNT accumulates dst += a·bᵀ for row-major a [m,d], b [n,d],
// dst [m,n]. With AVX2 it packs bᵀ into bt (length n·d, see ntScratch) and
// runs the dot tile on it; otherwise it runs matmulNTGo on b directly.
func matmulNT(dst, a, b, bt []float64, m, n, d int) {
	if !useAVX2 || m < 4 || n < 4 {
		matmulNTGo(dst, a, b, m, n, d)
		return
	}
	packTranspose(bt, b, n, d)
	matmulDot(dst, a, bt, m, d, n, dotAcc)
}

// matmulNTGo is matmulNT in Go. Both operands are read with unit stride,
// so q·kᵀ attention scores and the fused-linear dX = g·wᵀ need no
// transposed copy of the right operand. Four rows of a run per pass as
// independent dot-product chains for instruction-level parallelism; the
// c-ascending summation matches the reference MatMul(a, Transpose(b)) order
// bit for bit.
func matmulNTGo(dst, a, b []float64, m, n, d int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += a0[c] * bv
				s1 += a1[c] * bv
				s2 += a2[c] * bv
				s3 += a3[c] * bv
			}
			d0[j] += s0
			d1[j] += s1
			d2[j] += s2
			d3[j] += s3
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s float64
			for c, av := range ai {
				s += av * bj[c]
			}
			di[j] += s
		}
	}
}

// matmulNTStore is matmulNT with store semantics (dst = a·bᵀ instead of
// dst += a·bᵀ): callers with a fully-overwritten destination skip both the
// zero fill of the buffer and the read-modify-write of each element. bt is
// the pack buffer, as for matmulNT.
func matmulNTStore(dst, a, b, bt []float64, m, n, d int) {
	if !useAVX2 || m < 4 || n < 4 {
		matmulNTStoreGo(dst, a, b, m, n, d)
		return
	}
	packTranspose(bt, b, n, d)
	mode := dotStore
	if d == 8 {
		mode = dotStoreFirst // matmulNTStoreD8 sums from the first product
	}
	matmulDot(dst, a, bt, m, d, n, mode)
}

// matmulNTStoreGo is matmulNTStore in Go.
//
// d == 8 — the per-head depth of attention scores and dP at the default
// d_model — gets a fully unrolled dot: the loop-carried counter and bounds
// checks dominate 8-element dots, and unrolling measures ~1.6× faster. The
// unrolled expression is left-associative in c-ascending order but starts
// from the first product rather than from +0, so it differs from the loop
// only in the sign of an all-zero sum.
func matmulNTStoreGo(dst, a, b []float64, m, n, d int) {
	if d == 8 {
		matmulNTStoreD8(dst, a, b, m, n)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += a0[c] * bv
				s1 += a1[c] * bv
				s2 += a2[c] * bv
				s3 += a3[c] * bv
			}
			d0[j] = s0
			d1[j] = s1
			d2[j] = s2
			d3[j] = s3
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s float64
			for c, av := range ai {
				s += av * bj[c]
			}
			di[j] = s
		}
	}
}

func matmulNTStoreD8(dst, a, b []float64, m, n int) {
	const d = 8
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			b0, b1, b2, b3, b4, b5, b6, b7 := bj[0], bj[1], bj[2], bj[3], bj[4], bj[5], bj[6], bj[7]
			d0[j] = a0[0]*b0 + a0[1]*b1 + a0[2]*b2 + a0[3]*b3 + a0[4]*b4 + a0[5]*b5 + a0[6]*b6 + a0[7]*b7
			d1[j] = a1[0]*b0 + a1[1]*b1 + a1[2]*b2 + a1[3]*b3 + a1[4]*b4 + a1[5]*b5 + a1[6]*b6 + a1[7]*b7
			d2[j] = a2[0]*b0 + a2[1]*b1 + a2[2]*b2 + a2[3]*b3 + a2[4]*b4 + a2[5]*b5 + a2[6]*b6 + a2[7]*b7
			d3[j] = a3[0]*b0 + a3[1]*b1 + a3[2]*b2 + a3[3]*b3 + a3[4]*b4 + a3[5]*b5 + a3[6]*b6 + a3[7]*b7
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			di[j] = ai[0]*bj[0] + ai[1]*bj[1] + ai[2]*bj[2] + ai[3]*bj[3] +
				ai[4]*bj[4] + ai[5]*bj[5] + ai[6]*bj[6] + ai[7]*bj[7]
		}
	}
}

// matmulNTPrefix is matmulNTStore restricted per output row: row i of dst
// only receives columns j < rowEnd[i]; columns at and past rowEnd[i] are
// left untouched (the attention callers keep them zeroed). The fused
// attention uses it to skip the masked region of causal score matrices
// entirely — for a [T, T] causal mask that halves the score, softmax, and
// dP work. Each computed element is an independent c-ascending dot product,
// bit-identical to matmulNT's.
func matmulNTPrefix(dst, a, b []float64, m, n, d int, rowEnd []int) {
	if d == 8 {
		matmulNTPrefixD8(dst, a, b, m, n, rowEnd)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		e0, e1, e2, e3 := rowEnd[i], rowEnd[i+1], rowEnd[i+2], rowEnd[i+3]
		jmin := e0
		if e1 < jmin {
			jmin = e1
		}
		if e2 < jmin {
			jmin = e2
		}
		if e3 < jmin {
			jmin = e3
		}
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < jmin; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += a0[c] * bv
				s1 += a1[c] * bv
				s2 += a2[c] * bv
				s3 += a3[c] * bv
			}
			d0[j] = s0
			d1[j] = s1
			d2[j] = s2
			d3[j] = s3
		}
		// Per-row tails beyond the block's common prefix.
		for r := 0; r < 4; r++ {
			ar := a[(i+r)*d : (i+r)*d+d]
			dr := dst[(i+r)*n : (i+r)*n+n]
			for j := jmin; j < rowEnd[i+r]; j++ {
				bj := b[j*d : j*d+d]
				var s float64
				for c, av := range ar {
					s += av * bj[c]
				}
				dr[j] = s
			}
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < rowEnd[i]; j++ {
			bj := b[j*d : j*d+d]
			var s float64
			for c, av := range ai {
				s += av * bj[c]
			}
			di[j] = s
		}
	}
}

// matmulNTPrefixD8 is matmulNTPrefix's unrolled depth-8 case (see
// matmulNTStore on why d == 8 earns a dedicated kernel).
func matmulNTPrefixD8(dst, a, b []float64, m, n int, rowEnd []int) {
	const d = 8
	dot := func(ai, bj []float64) float64 {
		bj = bj[:d]
		ai = ai[:d]
		return ai[0]*bj[0] + ai[1]*bj[1] + ai[2]*bj[2] + ai[3]*bj[3] +
			ai[4]*bj[4] + ai[5]*bj[5] + ai[6]*bj[6] + ai[7]*bj[7]
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		e0, e1, e2, e3 := rowEnd[i], rowEnd[i+1], rowEnd[i+2], rowEnd[i+3]
		jmin := e0
		if e1 < jmin {
			jmin = e1
		}
		if e2 < jmin {
			jmin = e2
		}
		if e3 < jmin {
			jmin = e3
		}
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < jmin; j++ {
			bj := b[j*d : j*d+d]
			b0, b1, b2, b3, b4, b5, b6, b7 := bj[0], bj[1], bj[2], bj[3], bj[4], bj[5], bj[6], bj[7]
			d0[j] = a0[0]*b0 + a0[1]*b1 + a0[2]*b2 + a0[3]*b3 + a0[4]*b4 + a0[5]*b5 + a0[6]*b6 + a0[7]*b7
			d1[j] = a1[0]*b0 + a1[1]*b1 + a1[2]*b2 + a1[3]*b3 + a1[4]*b4 + a1[5]*b5 + a1[6]*b6 + a1[7]*b7
			d2[j] = a2[0]*b0 + a2[1]*b1 + a2[2]*b2 + a2[3]*b3 + a2[4]*b4 + a2[5]*b5 + a2[6]*b6 + a2[7]*b7
			d3[j] = a3[0]*b0 + a3[1]*b1 + a3[2]*b2 + a3[3]*b3 + a3[4]*b4 + a3[5]*b5 + a3[6]*b6 + a3[7]*b7
		}
		for r := 0; r < 4; r++ {
			ar := a[(i+r)*d : (i+r)*d+d]
			dr := dst[(i+r)*n : (i+r)*n+n]
			for j := jmin; j < rowEnd[i+r]; j++ {
				dr[j] = dot(ar, b[j*d:j*d+d])
			}
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < rowEnd[i]; j++ {
			di[j] = dot(ai, b[j*d:j*d+d])
		}
	}
}

// addAcc accumulates dst[i] += src[i]; the shared inner loop of the
// gradient-accumulate paths (Add, AddBias, residuals, Reshape).
func addAcc(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}
