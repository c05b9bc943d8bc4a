// Package features extracts the time series characteristics the paper
// analyses (§4.3.1): the feature set of the R tsfeatures package, including
// the distribution-shift features (max_kl_shift, max_level_shift,
// max_var_shift), autocorrelation and partial autocorrelation features,
// unit-root statistics, decomposition-based strength measures, and
// miscellaneous descriptors. Feature deltas between raw and decompressed
// series are the inputs to the paper's SHAP and Spearman analyses.
package features

import "math"

// ACF returns the autocorrelation function at lags 1..maxLag.
// Lags beyond the data length yield zero.
func ACF(x []float64, maxLag int) []float64 {
	n := len(x)
	out := make([]float64, maxLag)
	if n < 2 {
		return out
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for _, v := range x {
		d := v - mean
		c0 += d * d
	}
	if c0 == 0 {
		return out
	}
	for lag := 1; lag <= maxLag; lag++ {
		if lag >= n {
			break
		}
		var c float64
		for i := lag; i < n; i++ {
			c += (x[i] - mean) * (x[i-lag] - mean)
		}
		out[lag-1] = c / c0
	}
	return out
}

// ACFAt returns the autocorrelation at a single lag.
func ACFAt(x []float64, lag int) float64 {
	if lag <= 0 {
		return 1
	}
	a := ACF(x, lag)
	return a[lag-1]
}

// PACF returns the partial autocorrelation function at lags 1..maxLag using
// the Durbin-Levinson recursion.
func PACF(x []float64, maxLag int) []float64 {
	acf := ACF(x, maxLag)
	out := make([]float64, maxLag)
	if maxLag == 0 {
		return out
	}
	phi := make([][]float64, maxLag+1)
	for i := range phi {
		phi[i] = make([]float64, maxLag+1)
	}
	phi[1][1] = acf[0]
	out[0] = acf[0]
	for k := 2; k <= maxLag; k++ {
		var num, den float64
		num = acf[k-1]
		for j := 1; j < k; j++ {
			num -= phi[k-1][j] * acf[k-1-j]
			den += phi[k-1][j] * acf[j-1]
		}
		den = 1 - den
		if den == 0 {
			break
		}
		phi[k][k] = num / den
		for j := 1; j < k; j++ {
			phi[k][j] = phi[k-1][j] - phi[k][k]*phi[k-1][k-j]
		}
		out[k-1] = phi[k][k]
	}
	return out
}

// SumSq returns the sum of squares of the slice.
func SumSq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// Diff returns the d-th difference of x.
func Diff(x []float64, d int) []float64 {
	out := append([]float64(nil), x...)
	for k := 0; k < d; k++ {
		if len(out) < 2 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// SeasonalDiff returns x_t - x_{t-m}.
func SeasonalDiff(x []float64, m int) []float64 {
	if len(x) <= m || m <= 0 {
		return nil
	}
	out := make([]float64, len(x)-m)
	for i := m; i < len(x); i++ {
		out[i-m] = x[i] - x[i-m]
	}
	return out
}

// demean returns x minus its mean.
func demean(x []float64) []float64 { return demeanInto(make([]float64, len(x)), x) }

// demeanInto writes x minus its mean to d (of len(x)) and returns d.
func demeanInto(d, x []float64) []float64 {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i, v := range x {
		d[i] = v - mean
	}
	return d
}

func variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	d := demean(x)
	return SumSq(d) / float64(len(d)-1)
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
