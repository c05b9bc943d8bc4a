package compress

import (
	"io"

	"lossyts/internal/timeseries"
)

// Gorilla implements Facebook's Gorilla lossless floating-point compression
// (Pelkonen et al., PVLDB 2015), the paper's lossless baseline (§3.3).
// The kernel is a thin wrapper over the shared XOREncoder stage (xor.go) —
// the XOR chain itself is a reusable instance, not a Gorilla private.
// Unlike the original two-hour blocks, the whole series is compressed as a
// single segment, as the paper does for its lower-frequency datasets.
type Gorilla struct{}

// Method returns MethodGorilla.
func (Gorilla) Method() Method { return MethodGorilla }

func init() {
	Register(Registration{
		Method:       MethodGorilla,
		Code:         4,
		New:          func() (Compressor, error) { return Gorilla{}, nil },
		NewStream:    newGorillaStream,
		DecodeStream: gorillaDecodeStream,
	})
}

// Compress losslessly encodes s; epsilon is ignored. The batch path drives
// the same streaming kernel as StreamEncoder, so both produce identical
// bytes by construction.
func (g Gorilla) Compress(s *timeseries.Series, _ float64) (*Compressed, error) {
	return kernelCompress(MethodGorilla, s, 0, false, newGorillaStream)
}

// gorillaStream is Gorilla's incremental kernel: the XOREncoder's O(1)
// state (XOR chaining is naturally online; the original Gorilla is a
// streaming store).
type gorillaStream struct {
	enc XOREncoder
}

func newGorillaStream(_ float64, _ bool) (StreamKernel, error) {
	return &gorillaStream{enc: newXOREncoder()}, nil
}

// lossless marks the method as ignoring the error bound (see losslessKernel).
func (*gorillaStream) lossless() {}

func (k *gorillaStream) Push(v float64) { k.enc.Write(v) }

// Finish returns the bit-packed body; Gorilla compresses the whole series as
// one segment.
func (k *gorillaStream) Finish() ([]byte, int) {
	return k.enc.Bytes(), 1
}

// AppendFinish implements FinishAppender: the bit-packed body is copied onto
// dst in one append, so closing a stream touches no fresh memory.
func (k *gorillaStream) AppendFinish(dst []byte) ([]byte, int) {
	return append(dst, k.enc.Bytes()...), 1
}

// reset rewinds the kernel for a fresh series, keeping its bit buffer.
func (k *gorillaStream) reset() { k.enc.Reset() }

// release returns the bit buffer to the pool; the kernel must not be used
// afterwards.
func (k *gorillaStream) release() { k.enc.release() }

func (k *gorillaStream) Segments() int {
	if k.enc.Count() > 0 {
		return 1
	}
	return 0
}

// Pending is always 0: every pushed value is already bit-encoded.
func (k *gorillaStream) Pending() int { return 0 }

// gorillaValues replays the XOR chain incrementally via the shared
// XORDecoder stage.
type gorillaValues struct {
	dec       XORDecoder
	total     int
	remaining int
}

func gorillaDecodeStream(body []byte, count int) (ValueStream, error) {
	return &gorillaValues{dec: newXORDecoder(body), total: count, remaining: count}, nil
}

// rewind restarts the replay from the first value (see valueRewinder).
func (p *gorillaValues) rewind() {
	p.dec.Reset()
	p.remaining = p.total
}

func (p *gorillaValues) Next(dst []float64) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && p.remaining > 0 {
		v, err := p.dec.Next()
		if err != nil {
			return n, err
		}
		dst[n] = v
		n++
		p.remaining--
	}
	return n, nil
}
