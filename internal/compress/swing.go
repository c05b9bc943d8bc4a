package compress

import (
	"math"

	"lossyts/internal/timeseries"
)

// Swing implements the Swing filter (Elmeleegy et al., PVLDB 2009) with a
// pointwise relative error bound. Each segment is a line anchored at the
// segment's first value; upper and lower slope bounds are narrowed as
// points arrive, and when they cross, the segment is emitted. Following
// ModelarDB (the implementation the paper uses), the emitted slope is the
// mean of the upper and lower bounding lines (§3.2). The segment wire form
// is the shared line layer (line.go), which CAMEO emits too.
//
// Absolute switches to the classic absolute bound |v − v̂| ≤ ε (used by the
// ablation benches); the paper's evaluation uses the relative bound.
type Swing struct {
	Absolute bool
}

// Method returns MethodSwing.
func (Swing) Method() Method { return MethodSwing }

func init() {
	Register(Registration{
		Method:       MethodSwing,
		Code:         2,
		Lossy:        true,
		New:          func() (Compressor, error) { return Swing{}, nil },
		NewStream:    newSwingStream,
		DecodeStream: swingDecodeStream,
	})
}

// Compress encodes s as linear segments under the relative bound. The batch
// path drives the same streaming kernel as StreamEncoder, so both produce
// identical bytes by construction.
func (sw Swing) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	return kernelCompress(MethodSwing, s, epsilon, sw.Absolute, newSwingStream)
}

// swingStream is Swing's incremental kernel: the open segment's anchor
// intercept and the narrowing slope corridor — O(1) state regardless of
// series length. The body accumulates in the shared line emitter's pooled
// buffer (see reset/release).
type swingStream struct {
	lineEmitter
	epsilon  float64
	absolute bool

	count     int // points in the open segment
	intercept float64
	sLow      float64
	sHigh     float64
}

func newSwingStream(epsilon float64, absolute bool) (StreamKernel, error) {
	return &swingStream{epsilon: epsilon, absolute: absolute, sLow: math.Inf(-1), sHigh: math.Inf(1)}, nil
}

func (k *swingStream) Push(v float64) {
	if k.count == 0 {
		k.count, k.intercept = 1, v
		k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
		return
	}
	tol := k.epsilon * math.Abs(v)
	if k.absolute {
		tol = k.epsilon
	}
	i := float64(k.count) // local index of the incoming point
	newLow := math.Max(k.sLow, (v-tol-k.intercept)/i)
	newHigh := math.Min(k.sHigh, (v+tol-k.intercept)/i)
	if k.count < maxSegmentLen && newLow <= newHigh {
		k.count, k.sLow, k.sHigh = k.count+1, newLow, newHigh
		return
	}
	k.emitOpen()
	k.count, k.intercept = 1, v
	k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
}

// emitOpen writes the open segment through the shared line emitter.
func (k *swingStream) emitOpen() {
	slope := 0.0
	if k.count >= 2 {
		slope = (k.sLow + k.sHigh) / 2
	}
	k.emit(k.count, slope, k.intercept)
}

func (k *swingStream) Finish() ([]byte, int) {
	k.emitOpen()
	return k.bytes(), k.segments
}

// AppendFinish implements FinishAppender: the accumulated body is copied
// onto dst in one append, so closing a stream touches no fresh memory.
func (k *swingStream) AppendFinish(dst []byte) ([]byte, int) {
	k.emitOpen()
	return k.appendBody(dst), k.segments
}

// reset rewinds the kernel for a fresh series, keeping its body buffer.
func (k *swingStream) reset() {
	k.count, k.intercept = 0, 0
	k.sLow, k.sHigh = math.Inf(-1), math.Inf(1)
	k.resetBody()
}

// release returns the body buffer to the pool; the kernel must not be used
// afterwards.
func (k *swingStream) release() { k.releaseBody() }

func (k *swingStream) Segments() int { return k.segments }
func (k *swingStream) Pending() int  { return k.count }

func swingDecodeStream(body []byte, count int) (ValueStream, error) {
	return newLineValues(body, count), nil
}
