package features

// StreamACF tracks the exact autocorrelation function of a growing stream
// at lags 1..maxLag in O(maxLag) state: running sum and sum of squares,
// the lagged cross-products, the prefix sums of the first maxLag values,
// and a ring of the last maxLag values. At() agrees with the batch ACF over
// the full history to floating-point accumulation order — the tracker is an
// algebraic rearrangement, not an approximation — so codecs (CAMEO) and
// monitors can bound ACF deviation incrementally without re-scanning.
//
// The rearrangement: with m the running mean over n values,
//
//	c_k = Σ_{i=k..n-1} (x_i−m)(x_{i−k}−m)
//	    = cross_k − m·(H_k + T_k) + (n−k)·m²
//
// where cross_k is the running lagged cross-product, H_k the sum of all but
// the first k values (from the prefix sums), and T_k the sum of all but the
// last k values (from the ring).
type StreamACF struct {
	maxLag int
	n      int
	sum    float64
	sumsq  float64

	cross  []float64 // cross[k] = Σ x_i·x_{i−k}, k in 1..maxLag
	prefix []float64 // prefix[k] = x_0+…+x_{k−1}, k in 0..maxLag
	ring   []float64 // last maxLag values, ring[i%maxLag]
}

// NewStreamACF returns a tracker for lags 1..maxLag (maxLag ≥ 1).
func NewStreamACF(maxLag int) *StreamACF {
	if maxLag < 1 {
		maxLag = 1
	}
	return &StreamACF{
		maxLag: maxLag,
		cross:  make([]float64, maxLag+1),
		prefix: make([]float64, maxLag+1),
		ring:   make([]float64, maxLag),
	}
}

// Len returns the number of values pushed.
func (a *StreamACF) Len() int { return a.n }

// Push feeds the next value. O(maxLag).
func (a *StreamACF) Push(v float64) {
	for k := 1; k <= a.maxLag && k <= a.n; k++ {
		a.cross[k] += v * a.ring[(a.n-k)%a.maxLag]
	}
	if a.n < a.maxLag {
		a.prefix[a.n+1] = a.prefix[a.n] + v
	}
	a.ring[a.n%a.maxLag] = v
	a.n++
	a.sum += v
	a.sumsq += v * v
}

// Into fills dst[k−1] with the autocorrelation at lag k for k=1..maxLag,
// matching the batch ACF's conventions (zero beyond the data length or for
// constant series). dst must have length ≥ maxLag; the filled prefix is
// returned. Allocation-free. O(maxLag).
func (a *StreamACF) Into(dst []float64) []float64 {
	dst = dst[:a.maxLag]
	for i := range dst {
		dst[i] = 0
	}
	if a.n < 2 {
		return dst
	}
	m := a.sum / float64(a.n)
	c0 := a.sumsq - float64(a.n)*m*m
	if c0 <= 0 {
		return dst
	}
	tail := 0.0 // T-side correction: sum of the last k values, built incrementally
	for k := 1; k <= a.maxLag && k < a.n; k++ {
		tail += a.ring[(a.n-k)%a.maxLag]
		head := a.prefix[k] // sum of the first k values
		hk := a.sum - head
		tk := a.sum - tail
		ck := a.cross[k] - m*(hk+tk) + float64(a.n-k)*m*m
		dst[k-1] = ck / c0
	}
	return dst
}

// At returns the autocorrelation at a single lag (1..maxLag). O(maxLag).
func (a *StreamACF) At(lag int) float64 {
	if lag <= 0 {
		return 1
	}
	if lag > a.maxLag || lag >= a.n {
		return 0
	}
	var buf [64]float64
	dst := buf[:0]
	if a.maxLag > len(buf) {
		dst = make([]float64, a.maxLag)
	} else {
		dst = buf[:a.maxLag]
	}
	return a.Into(dst)[lag-1]
}

// Reset rewinds the tracker, keeping its buffers.
func (a *StreamACF) Reset() {
	a.n, a.sum, a.sumsq = 0, 0, 0
	for i := range a.cross {
		a.cross[i] = 0
		a.prefix[i] = 0
	}
	for i := range a.ring {
		a.ring[i] = 0
	}
}
