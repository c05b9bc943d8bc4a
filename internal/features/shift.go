package features

import (
	"math"
	"sync"
)

// ShiftResult holds the maximum shift between consecutive rolling windows
// and the (0-based) index at which it occurs.
type ShiftResult struct {
	Max  float64
	Time int
}

// LevelShift returns the maximum absolute difference between the means of
// consecutive (non-overlapping, width-w) sliding windows — tsfeatures'
// max_level_shift / time_level_shift.
func LevelShift(x []float64, w int) ShiftResult {
	return rollShift(x, w, false)
}

// VarShift returns the maximum absolute difference between the variances of
// consecutive sliding windows — tsfeatures' max_var_shift / time_var_shift.
func VarShift(x []float64, w int) ShiftResult {
	return rollShift(x, w, true)
}

// rollShift scans every pair of adjacent width-w windows in O(n) by sliding
// compensated running sums through a ShiftTracker instead of recomputing
// each window's statistic from scratch (the previous O(n·w) form). The data
// is centred on its global mean first — both the mean deltas and the
// variances are invariant under the shift — so the running sum-of-squares
// never suffers the catastrophic cancellation a large offset would cause.
// Non-finite inputs fall back to the windowed reference scan, which confines
// a NaN to the windows that contain it rather than poisoning the running
// sums for the rest of the series.
func rollShift(x []float64, w int, varMode bool) ShiftResult {
	n := len(x)
	if w < 2 || n < 2*w {
		return ShiftResult{}
	}
	var mu float64
	for _, v := range x {
		mu += v
	}
	mu /= float64(n)
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return rollShiftRef(x, w, varMode)
	}
	t := NewShiftTracker(w)
	res := ShiftResult{Max: -1}
	for _, v := range x {
		p, ok := t.Push(v - mu)
		if !ok {
			continue
		}
		d := p.LevelDelta
		if varMode {
			d = p.VarDelta
		}
		if d > res.Max {
			res.Max, res.Time = d, int(p.Index)
		}
	}
	if res.Max < 0 {
		res.Max = 0
	}
	return res
}

// rollShiftRef is the reference O(n·w) scan: every window statistic is
// recomputed from scratch. It remains the NaN/Inf fallback and the oracle
// the differential tests hold the sliding implementation against.
func rollShiftRef(x []float64, w int, varMode bool) ShiftResult {
	stat := mean
	if varMode {
		stat = variance
	}
	n := len(x)
	if w < 2 || n < 2*w {
		return ShiftResult{}
	}
	// Rolling statistic over every window start.
	nw := n - w + 1
	vals := make([]float64, nw)
	for i := 0; i < nw; i++ {
		vals[i] = stat(x[i : i+w])
	}
	res := ShiftResult{Max: -1}
	for i := 0; i+w < nw; i++ {
		d := math.Abs(vals[i+w] - vals[i])
		if d > res.Max {
			res.Max, res.Time = d, i+w
		}
	}
	if res.Max < 0 {
		res.Max = 0
	}
	return res
}

// KLShift returns the maximum Kullback-Leibler divergence between Gaussian
// kernel density estimates of consecutive width-w windows — tsfeatures'
// max_kl_shift, the characteristic the paper identifies as the strongest
// predictor of compression impact on forecasting accuracy.
//
// Densities are evaluated on a common grid spanning the full data range.
// For efficiency the window slides in steps of max(1, w/8) rather than 1;
// the maximum over this subsampled set converges to the full-scan maximum
// for the smooth density sequences time series produce.
//
// The kernel term exp(-0.5·((g-v)/bw)²) depends only on the grid point g
// and the sample v, not on the window, so it is tabulated once per grid
// point as a kernel row over every sample any window covers. Each distinct
// window (the step-grid starts s and their partners s+w) then sums its
// slice of that row left to right, exactly the additions a per-window
// evaluation makes, so every density, KL value and maximum is the same
// bits as evaluating each window from scratch — with one exp per (grid
// point, sample) instead of one per (grid point, sample, covering window).
// The row and the window × grid density table come from a pool.
func KLShift(x []float64, w int) ShiftResult {
	n := len(x)
	if w < 2 || n < 2*w {
		return ShiftResult{}
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return ShiftResult{}
	}
	sc := klPool.Get().(*klScratch)
	defer klPool.Put(sc)
	grid := grow(&sc.grid, klGridN)
	for i := range grid {
		grid[i] = lo + (hi-lo)*float64(i)/float64(klGridN-1)
	}
	// Silverman bandwidth on the full series: variance(x), demeaned into
	// the row scratch instead of a fresh slice.
	sd := math.Sqrt(SumSq(demeanInto(grow(&sc.row, n), x)) / float64(n-1))
	if sd == 0 {
		return ShiftResult{}
	}
	bw := 1.06 * sd * math.Pow(float64(n), -0.2)

	step := w / 8
	if step < 1 {
		step = 1
	}
	// Pair k compares the windows starting at k·step and k·step+w. When w
	// is a multiple of step the partner is itself a step-grid window (index
	// k+w/step); otherwise the partners form a second block after the K
	// step-grid windows.
	pairs := (n-2*w)/step + 1
	nwin, partner := 2*pairs, pairs
	if w%step == 0 {
		nwin, partner = pairs+w/step, w/step
	}
	start := func(k int) int {
		if k < pairs || w%step == 0 {
			return k * step
		}
		return (k-pairs)*step + w
	}
	m := (pairs-1)*step + 2*w // samples covered by any window
	row := grow(&sc.row, m)
	dens := grow(&sc.dens, nwin*klGridN)
	inv := 1 / (bw * math.Sqrt(2*math.Pi) * float64(w))
	for gi, g := range grid {
		for j, v := range x[:m] {
			z := (g - v) / bw
			row[j] = math.Exp(-0.5 * z * z)
		}
		// Four windows at a time, each with its own left-to-right sum, so
		// the four add chains overlap.
		k := 0
		for ; k+4 <= nwin; k += 4 {
			r0 := row[start(k) : start(k)+w]
			r1 := row[start(k+1):][:len(r0)]
			r2 := row[start(k+2):][:len(r0)]
			r3 := row[start(k+3):][:len(r0)]
			var s0, s1, s2, s3 float64
			for j, e := range r0 {
				s0 += e
				s1 += r1[j]
				s2 += r2[j]
				s3 += r3[j]
			}
			dens[k*klGridN+gi] = s0*inv + 1e-12
			dens[(k+1)*klGridN+gi] = s1*inv + 1e-12
			dens[(k+2)*klGridN+gi] = s2*inv + 1e-12
			dens[(k+3)*klGridN+gi] = s3*inv + 1e-12
		}
		for ; k < nwin; k++ {
			var s float64
			for _, e := range row[start(k) : start(k)+w] {
				s += e
			}
			dens[k*klGridN+gi] = s*inv + 1e-12
		}
	}
	// Normalise each window's density to a discrete distribution over the
	// grid.
	for k := 0; k < nwin; k++ {
		d := dens[k*klGridN : (k+1)*klGridN]
		var tot float64
		for _, v := range d {
			tot += v
		}
		for i := range d {
			d[i] /= tot
		}
	}
	res := ShiftResult{Max: -1}
	for k := 0; k < pairs; k++ {
		p := dens[k*klGridN : (k+1)*klGridN]
		q := dens[(k+partner)*klGridN : (k+partner+1)*klGridN]
		var kl float64
		for i := range p {
			kl += p[i] * math.Log(p[i]/q[i])
		}
		if kl > res.Max {
			res.Max, res.Time = kl, k*step+w
		}
	}
	if res.Max < 0 {
		res.Max = 0
	}
	return res
}

// klGridN is the number of grid points KLShift evaluates densities on.
const klGridN = 100

// klScratch holds one KLShift call's working memory: the density grid, the
// kernel row (also the demeaned series while the bandwidth is computed) and
// the window × grid density table.
type klScratch struct {
	grid, row, dens []float64
}

var klPool = sync.Pool{New: func() any { return new(klScratch) }}

// grow returns (*buf)[:n], reallocating *buf first when it is too small.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}
