package compress

import (
	"math"

	"lossyts/internal/features"
	"lossyts/internal/timeseries"
)

// CAMEO implements CAMEO-style autocorrelation-aware line simplification
// (Muñiz-Cuza, Jensen, Thomsen — "CAMEO: Autocorrelation-Preserving Line
// Simplification for Lossy Time Series Compression", same group as the
// source paper). Like Swing it fits maximal line segments inside a
// pointwise corridor, but the corridor width is adapted online so the
// reconstruction preserves the autocorrelation function: two exact
// streaming ACF trackers (features.StreamACF) follow the original and the
// reconstructed stream, and whenever the worst-lag ACF deviation
// approaches the bound the working tolerance α·ε·|v| is tightened (α
// halves, floor 1/8); when the deviation is comfortably small the
// tolerance relaxes back toward the full ε (α doubles, cap 1). Since
// α ≤ 1 the pointwise relative bound of Definition 4 always holds; the
// ACF adaptation only ever spends *less* than the permitted error.
//
// The segment wire form is the shared line layer (line.go) — identical
// grammar to Swing, decoded by the same path. The absolute bound is reached
// through NewAbsoluteStreamEncoder.
type CAMEO struct{}

// MethodCAMEO identifies the CAMEO compressor.
const MethodCAMEO Method = "CAMEO"

// Method returns MethodCAMEO.
func (CAMEO) Method() Method { return MethodCAMEO }

func init() {
	Register(Registration{
		Method:       MethodCAMEO,
		Code:         6,
		Lossy:        true,
		New:          func() (Compressor, error) { return CAMEO{}, nil },
		NewStream:    newCameoStream,
		DecodeStream: cameoDecodeStream,
	})
}

// CAMEO adaptation parameters.
const (
	cameoMaxLag   = 8       // largest ACF lag the trackers preserve
	cameoAlphaMin = 1.0 / 8 // floor of the tolerance scale
)

// Compress encodes s as ACF-aware linear segments under the relative bound.
// The batch path drives the same streaming kernel as StreamEncoder, so both
// produce identical bytes by construction.
func (CAMEO) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	return kernelCompress(MethodCAMEO, s, epsilon, false, newCameoStream)
}

// cameoStream is CAMEO's incremental kernel: the open segment's corridor
// (as Swing), the segment's original values in a pooled buffer, and the two
// O(maxLag) ACF trackers — bounded state regardless of series length.
type cameoStream struct {
	lineEmitter
	epsilon  float64
	absolute bool
	alpha    float64

	count     int // points in the open segment
	intercept float64
	sLow      float64
	sHigh     float64

	orig     *sbuf[float64] // open segment's original values
	acfOrig  *features.StreamACF
	acfRecon *features.StreamACF
	bufOrig  []float64 // ACF scratch, constructor-allocated
	bufRecon []float64
}

func newCameoStream(epsilon float64, absolute bool) (StreamKernel, error) {
	return &cameoStream{
		epsilon:  epsilon,
		absolute: absolute,
		alpha:    1,
		sLow:     math.Inf(-1),
		sHigh:    math.Inf(1),
		orig:     floatPool.get(256),
		acfOrig:  features.NewStreamACF(cameoMaxLag),
		acfRecon: features.NewStreamACF(cameoMaxLag),
		bufOrig:  make([]float64, cameoMaxLag),
		bufRecon: make([]float64, cameoMaxLag),
	}, nil
}

func (k *cameoStream) Push(v float64) {
	if k.count == 0 {
		k.count, k.intercept = 1, v
		k.orig.s = append(k.orig.s[:0], v)
		k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
		return
	}
	tol := k.alpha * k.epsilon * math.Abs(v)
	if k.absolute {
		tol = k.alpha * k.epsilon
	}
	i := float64(k.count) // local index of the incoming point
	newLow := math.Max(k.sLow, (v-tol-k.intercept)/i)
	newHigh := math.Min(k.sHigh, (v+tol-k.intercept)/i)
	if k.count < maxSegmentLen && newLow <= newHigh {
		k.count, k.sLow, k.sHigh = k.count+1, newLow, newHigh
		k.orig.s = append(k.orig.s, v)
		return
	}
	k.emitOpen()
	k.count, k.intercept = 1, v
	k.orig.s = append(k.orig.s[:0], v)
	k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
}

// emitOpen closes the open segment: the line is emitted through the shared
// line layer, both ACF trackers advance over the segment (original values
// vs the line's reconstruction), and the tolerance scale α adapts to the
// worst-lag ACF deviation.
func (k *cameoStream) emitOpen() {
	slope := 0.0
	if k.count >= 2 {
		slope = (k.sLow + k.sHigh) / 2
	}
	k.emit(k.count, slope, k.intercept)
	for i, v := range k.orig.s {
		k.acfOrig.Push(v)
		k.acfRecon.Push(k.intercept + slope*float64(i))
	}
	k.orig.s = k.orig.s[:0]
	k.adapt()
}

// adapt rescales α against the current ACF deviation: halve (floor 1/8)
// when the deviation exceeds ε, double (cap 1) when it is below ε/4.
func (k *cameoStream) adapt() {
	ao := k.acfOrig.Into(k.bufOrig)
	ar := k.acfRecon.Into(k.bufRecon)
	dev := 0.0
	for i := range ao {
		if d := math.Abs(ao[i] - ar[i]); d > dev {
			dev = d
		}
	}
	switch {
	case dev > k.epsilon:
		if k.alpha /= 2; k.alpha < cameoAlphaMin {
			k.alpha = cameoAlphaMin
		}
	case dev < k.epsilon/4:
		if k.alpha *= 2; k.alpha > 1 {
			k.alpha = 1
		}
	}
}

func (k *cameoStream) Finish() ([]byte, int) {
	k.emitOpen()
	return k.bytes(), k.segments
}

// AppendFinish implements FinishAppender: the accumulated body is copied
// onto dst in one append, so closing a stream touches no fresh memory.
func (k *cameoStream) AppendFinish(dst []byte) ([]byte, int) {
	k.emitOpen()
	return k.appendBody(dst), k.segments
}

// reset rewinds the kernel for a fresh series, keeping all scratch.
func (k *cameoStream) reset() {
	k.alpha = 1
	k.count, k.intercept = 0, 0
	k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
	k.orig.s = k.orig.s[:0]
	k.acfOrig.Reset()
	k.acfRecon.Reset()
	k.resetBody()
}

// release returns the pooled buffers; the kernel must not be used afterwards.
func (k *cameoStream) release() {
	floatPool.put(k.orig)
	k.orig = nil
	k.releaseBody()
}

func (k *cameoStream) Segments() int { return k.segments }
func (k *cameoStream) Pending() int  { return k.count }

func cameoDecodeStream(body []byte, count int) (ValueStream, error) {
	return newLineValues(body, count), nil
}
