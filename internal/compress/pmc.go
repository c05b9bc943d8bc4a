package compress

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"lossyts/internal/timeseries"
)

// PMC implements Poor Man's Compression - Mean (Lazaridis & Mehrotra, ICDE
// 2003) with a pointwise relative error bound. Data points are added to an
// adaptive window whose running mean represents them; when the mean can no
// longer satisfy every point's tolerance interval, the window (without the
// latest point) is emitted as a constant segment (§3.2).
//
// Absolute switches to the classic absolute bound |v − v̂| ≤ ε (used by the
// ablation benches); the paper's evaluation uses the relative bound.
type PMC struct {
	Absolute bool
}

// Method returns MethodPMC.
func (PMC) Method() Method { return MethodPMC }

func init() {
	Register(Registration{
		Method:       MethodPMC,
		Code:         1,
		Lossy:        true,
		New:          func() (Compressor, error) { return PMC{}, nil },
		NewStream:    newPMCStream,
		DecodeStream: pmcDecodeStream,
	})
}

const maxSegmentLen = math.MaxUint16

// Compress encodes s as mean-valued segments under the relative bound. The
// batch path drives the same streaming kernel as StreamEncoder, so both
// produce identical bytes by construction.
func (p PMC) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	return kernelCompress(MethodPMC, s, epsilon, p.Absolute, newPMCStream)
}

// pmcStream is PMC's incremental kernel: the open window's running sum and
// feasible mean interval — O(1) state regardless of series length. The body
// accumulates in a pooled buffer (see reset/release).
type pmcStream struct {
	epsilon  float64
	absolute bool

	count        int
	sum          float64
	lower, upper float64

	segments int
	body     *sbuf[byte]
}

func newPMCStream(epsilon float64, absolute bool) (StreamKernel, error) {
	return &pmcStream{epsilon: epsilon, absolute: absolute, lower: math.Inf(-1), upper: math.Inf(1)}, nil
}

func (k *pmcStream) Push(v float64) {
	tol := k.epsilon * math.Abs(v)
	if k.absolute {
		tol = k.epsilon
	}
	newLower := math.Max(k.lower, v-tol)
	newUpper := math.Min(k.upper, v+tol)
	newSum := k.sum + v
	newMean := newSum / float64(k.count+1)
	if k.count < maxSegmentLen && newLower <= newMean && newMean <= newUpper {
		k.count, k.sum, k.lower, k.upper = k.count+1, newSum, newLower, newUpper
		return
	}
	k.emit()
	k.count, k.sum = 1, v
	k.lower, k.upper = v-tol, v+tol
}

// emit closes the open window as one segment. Its mean is clamped into the
// feasible interval (guarding against floating-point drift in the running
// sum) and then snapped to the coarsest representable grid inside that
// interval so the stored coefficients compress well under the shared gzip
// stage.
func (k *pmcStream) emit() {
	mean := quantizeToInterval(k.sum/float64(k.count), k.lower, k.upper)
	if k.body == nil {
		k.body = bytePool.get(256)
	}
	var scratch [10]byte
	binary.LittleEndian.PutUint16(scratch[:2], uint16(k.count))
	binary.LittleEndian.PutUint64(scratch[2:], math.Float64bits(mean))
	k.body.s = append(k.body.s, scratch[:]...)
	k.segments++
}

func (k *pmcStream) Finish() ([]byte, int) {
	k.emit()
	return k.body.s, k.segments
}

// AppendFinish implements FinishAppender: the accumulated body is copied
// onto dst in one append, so closing a stream touches no fresh memory.
func (k *pmcStream) AppendFinish(dst []byte) ([]byte, int) {
	k.emit()
	return append(dst, k.body.s...), k.segments
}

// reset rewinds the kernel for a fresh series, keeping its body buffer.
func (k *pmcStream) reset() {
	k.count, k.sum = 0, 0
	k.lower, k.upper = math.Inf(-1), math.Inf(1)
	k.segments = 0
	if k.body != nil {
		k.body.s = k.body.s[:0]
	}
}

// release returns the body buffer to the pool; the kernel must not be used
// afterwards.
func (k *pmcStream) release() {
	bytePool.put(k.body)
	k.body = nil
}

func (k *pmcStream) Segments() int { return k.segments }
func (k *pmcStream) Pending() int  { return k.count }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quantizeToInterval returns a value inside [lo, hi] that is as close to v
// as the interval allows while lying on the coarsest power-of-two grid that
// intersects the interval. Such values have long runs of trailing zero
// mantissa bits, which the gzip stage compresses far better than arbitrary
// means — the mechanism behind PMC's CR advantage over Swing (§4.2).
func quantizeToInterval(v, lo, hi float64) float64 {
	v = clamp(v, lo, hi)
	w := hi - lo
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return v
	}
	// The largest step 2^k with 2^k <= w always has a multiple in [lo, hi].
	k := math.Floor(math.Log2(w))
	step := math.Ldexp(1, int(k))
	q := math.Round(v/step) * step
	if q >= lo && q <= hi {
		return q
	}
	// Rounding of v can fall just outside; the interval midpoint cannot.
	q = math.Round((lo+hi)/2/step) * step
	if q >= lo && q <= hi {
		return q
	}
	return v
}

// pmcValues replays PMC segments incrementally: the carried state is one
// segment header (its remaining length and mean).
type pmcValues struct {
	body      []byte
	total     int
	pos       int
	remaining int
	segLeft   int
	mean      float64
}

func pmcDecodeStream(body []byte, count int) (ValueStream, error) {
	return &pmcValues{body: body, total: count, remaining: count}, nil
}

// rewind restarts the replay from the first value (see valueRewinder).
func (p *pmcValues) rewind() {
	p.pos, p.remaining, p.segLeft, p.mean = 0, p.total, 0, 0
}

func (p *pmcValues) Next(dst []float64) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && p.remaining > 0 {
		if p.segLeft == 0 {
			if p.pos+10 > len(p.body) {
				return n, io.ErrUnexpectedEOF
			}
			seg := int(binary.LittleEndian.Uint16(p.body[p.pos : p.pos+2]))
			p.mean = math.Float64frombits(binary.LittleEndian.Uint64(p.body[p.pos+2 : p.pos+10]))
			p.pos += 10
			if seg == 0 || seg > p.remaining {
				return n, errors.New("compress: corrupt PMC segment length")
			}
			p.segLeft = seg
		}
		dst[n] = p.mean
		n++
		p.segLeft--
		p.remaining--
	}
	return n, nil
}
