package nn

// Matmul kernels. They register-block over four rows of A so each
// streamed row of B (or of the packed Bᵀ) is reused four times from
// registers, and slices every row once up front so the compiler can
// eliminate bounds checks in the inner loops. Per-output-element summation
// order (p ascending) matches the naive reference kernels kept as test
// oracles (reference_test.go), so forward results are bit-compatible;
// backward kernels regroup additions and agree within ~1e-12.

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
// Large shapes run as a packed transpose of b followed by the dot-product
// kernel: the axpy form below loads and stores every dst element k/4 times,
// while the dot form stores each once, which measures 1.4–1.6× faster at
// training shapes despite the packing pass. Both sum each output in
// p-ascending order, so the choice does not change results. Small or thin
// shapes keep the axpy form, whose zero-skip and lack of packing win there.
func matmulFwd(dst, a, b []float64, m, k, n int) {
	if m >= 16 && k >= 8 {
		bp, bt := getScratch(k * n)
		packTranspose(bt, b, k, n)
		matmulNT(dst, a, bt, m, n, k)
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
// one test per gradient element.
func matmulBwdAPacked(dA, g, bt []float64, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		g0 := g[(i+0)*n : (i+0)*n+n]
		g1 := g[(i+1)*n : (i+1)*n+n]
		g2 := g[(i+2)*n : (i+2)*n+n]
		g3 := g[(i+3)*n : (i+3)*n+n]
		d0 := dA[(i+0)*k : (i+0)*k+k]
		d1 := dA[(i+1)*k : (i+1)*k+k]
		d2 := dA[(i+2)*k : (i+2)*k+k]
		d3 := dA[(i+3)*k : (i+3)*k+k]
		for j := 0; j < n; j++ {
			v0, v1, v2, v3 := g0[j], g1[j], g2[j], g3[j]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			bj := bt[j*k : j*k+k]
			for p, bv := range bj {
				d0[p] += v0 * bv
				d1[p] += v1 * bv
				d2[p] += v2 * bv
				d3[p] += v3 * bv
			}
		}
	}
	for ; i < m; i++ {
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

// matmulBwdB accumulates dB += aᵀ·g with a [m,k], g [m,n]. It iterates rows of a (unit-stride reads, unlike the reference kernel's
// stride-k column walk) and blocks four rows per pass so each dB row is
// loaded and stored once per four gradient rows. (A packed-dot form like
// matmulFwd's is a loss here: it needs both aᵀ and gᵀ, and those packs
// write [k,m]/[n,m] buffers at stride m — one cache miss per element at
// training shapes.)
func matmulBwdB(dB, a, g []float64, m, k, n int) {
	if n == 8 {
		matmulBwdBN8(dB, a, g, m, k)
		return
	}
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
			for j := range row {
				row[j] += v0*g0[j] + v1*g1[j] + v2*g2[j] + v3*g3[j]
			}
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

// matmulNT accumulates dst += a·bᵀ for row-major a [m,d], b [n,d],
// dst [m,n] — both operands read with unit stride, so q·kᵀ attention
// scores and the fused-linear dX = g·wᵀ need no transposed copy of the
// right operand. Four rows of a run per pass as independent dot-product
// chains for instruction-level parallelism; the c-ascending summation
// matches the reference MatMul(a, Transpose(b)) order bit for bit.
func matmulNT(dst, a, b []float64, m, n, d int) {
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
// zero fill of the buffer and the read-modify-write of each element.
//
// d == 8 — the per-head depth of attention scores and dP at the default
// d_model — gets a fully unrolled dot: the loop-carried counter and bounds
// checks dominate 8-element dots, and unrolling measures ~1.6× faster. The
// unrolled expression is left-associative in c-ascending order, so it is
// bit-identical to the loop.
func matmulNTStore(dst, a, b []float64, m, n, d int) {
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
