package compress

import (
	"errors"
	"fmt"

	"lossyts/internal/timeseries"
)

// StreamKernel is the per-method incremental encoder state behind
// StreamEncoder. A kernel sees one observation at a time, accumulates
// finished segments in its own body encoding, and flushes the open window at
// Finish. The batch Compress implementations drive the same kernels over the
// whole series, so streamed and batch payloads are byte-identical by
// construction — there is exactly one encoding of each method's per-point
// logic in the package.
//
// Kernels are registered through Registration.NewStream; methods that need a
// whole-series pass (SeasonalPMC's phase profile) leave it nil and are
// reachable through NewBufferedStreamEncoder instead.
type StreamKernel interface {
	// Push feeds the next observation into the open window.
	Push(v float64)
	// Finish flushes the open window and returns the encoded payload body
	// (the bytes after the shared header) and the final segment count. It is
	// called exactly once, and only after at least one Push.
	Finish() (body []byte, segments int)
	// Segments reports the segments emitted so far, not counting the open
	// window.
	Segments() int
	// Pending reports how many points sit in the open window — pushed but
	// not yet represented by an emitted segment.
	Pending() int
}

// losslessKernel marks kernels whose method ignores the error bound. The
// assembled Compressed then records Epsilon 0, matching the batch encoder's
// metadata for lossless methods.
type losslessKernel interface{ lossless() }

// FinishAppender is the no-copy form of StreamKernel.Finish: the kernel
// appends its encoded body onto dst instead of exposing an internal buffer.
// Kernels that implement it let CloseAppend assemble the whole frame in one
// pooled buffer; like Finish, it is called exactly once. External kernels
// may implement it for the same benefit — the registry interface itself is
// unchanged.
type FinishAppender interface {
	AppendFinish(dst []byte) (out []byte, segments int)
}

// kernelReseter is implemented by kernels that can be rewound to their
// initial state while keeping their scratch buffers, enabling
// StreamEncoder.Reset to make one encoder serve many series with zero
// steady-state allocation.
type kernelReseter interface{ reset() }

// kernelReleaser is implemented by kernels holding pooled scratch buffers;
// release returns them to the package pools (see StreamEncoder.Release).
type kernelReleaser interface{ release() }

// StreamEncoder compresses a regular time series incrementally — the edge
// deployment mode of the paper's wind-turbine scenario (§1): points are
// pushed one at a time (or chunk by chunk) as the sensor produces them,
// finished segments become available immediately for transmission, and Close
// flushes the open window. Every built-in method streams: PMC, Swing, and
// Gorilla are online algorithms, and SZ carries one block plus two
// reconstructed values of state. Streaming output is byte-identical to batch
// compression of the same values.
type StreamEncoder struct {
	method   Method
	epsilon  float64
	start    int64
	interval int64
	n        int
	kernel   StreamKernel
	closed   bool
}

// NewStreamEncoder returns a streaming encoder for the method, taking the
// series geometry (start, interval) from s. Methods without an incremental
// kernel are rejected; wrap them with NewBufferedStreamEncoder if O(n)
// buffering is acceptable.
func NewStreamEncoder(m Method, s *timeseries.Series, epsilon float64) (*StreamEncoder, error) {
	return NewStreamEncoderAt(m, s.Start, s.Interval, epsilon)
}

// NewStreamEncoderAt is NewStreamEncoder for callers that have no Series in
// hand — a sensor driver or a chunk Source knows only the first timestamp
// and the sampling interval.
func NewStreamEncoderAt(m Method, start, interval int64, epsilon float64) (*StreamEncoder, error) {
	return newStreamEncoder(m, start, interval, epsilon, false)
}

// NewAbsoluteStreamEncoder is NewStreamEncoder with the classic absolute
// error bound |v − v̂| ≤ ε instead of the paper's relative bound.
func NewAbsoluteStreamEncoder(m Method, s *timeseries.Series, epsilon float64) (*StreamEncoder, error) {
	return newStreamEncoder(m, s.Start, s.Interval, epsilon, true)
}

// errNegativeBound rejects an error bound below zero.
var errNegativeBound = errors.New("compress: negative error bound")

func newStreamEncoder(m Method, start, interval int64, epsilon float64, absolute bool) (*StreamEncoder, error) {
	if epsilon < 0 {
		return nil, errNegativeBound
	}
	reg, err := lookup(m)
	if err != nil {
		return nil, err
	}
	if reg.NewStream == nil {
		return nil, fmt.Errorf("compress: streaming not supported for %s", m)
	}
	kernel, err := reg.NewStream(epsilon, absolute)
	if err != nil {
		return nil, err
	}
	return &StreamEncoder{
		method:   m,
		epsilon:  epsilon,
		start:    start,
		interval: interval,
		kernel:   kernel,
	}, nil
}

// NewBufferedStreamEncoder adapts any Compressor — including ones that need
// whole-series passes, like SeasonalPMC's phase profile — to the
// StreamEncoder API by buffering pushed values and running the batch
// Compress at Close. Memory is O(n), not O(chunk); use it only for methods
// that have no incremental kernel.
func NewBufferedStreamEncoder(c Compressor, start, interval int64, epsilon float64) (*StreamEncoder, error) {
	if epsilon < 0 {
		return nil, errNegativeBound
	}
	if c == nil {
		return nil, errors.New("compress: nil compressor")
	}
	return &StreamEncoder{
		method:   c.Method(),
		epsilon:  epsilon,
		start:    start,
		interval: interval,
		kernel:   &bufferedKernel{comp: c},
	}, nil
}

// bufferedKernel holds the whole series and defers to the batch compressor
// at Close (see NewBufferedStreamEncoder).
type bufferedKernel struct {
	comp   Compressor
	values []float64
}

func (k *bufferedKernel) Push(v float64)        { k.values = append(k.values, v) }
func (k *bufferedKernel) Finish() ([]byte, int) { return nil, 0 } // Close compresses directly
func (k *bufferedKernel) Segments() int         { return 0 }
func (k *bufferedKernel) Pending() int          { return len(k.values) }
func (k *bufferedKernel) reset()                { k.values = k.values[:0] }

// Push adds the next observation. Finished segments accumulate internally;
// call Segments to see how many have been emitted so far.
func (e *StreamEncoder) Push(v float64) error {
	if e.closed {
		return errors.New("compress: push after close")
	}
	e.kernel.Push(v)
	e.n++
	return nil
}

// PushChunk feeds a whole chunk. The chunk must abut the points pushed so
// far and share the encoder's interval — the same seam check as
// Series.Append, so a dropped or duplicated chunk surfaces at the encoder
// rather than as a silently shifted reconstruction.
func (e *StreamEncoder) PushChunk(c timeseries.Chunk) error {
	if e.closed {
		return errors.New("compress: push after close")
	}
	if c.Len() == 0 {
		return nil
	}
	if c.Interval != e.interval {
		return fmt.Errorf("compress: chunk interval %d does not match stream interval %d", c.Interval, e.interval)
	}
	if want := e.start + int64(e.n)*e.interval; c.Start != want {
		return fmt.Errorf("compress: chunk starts at %d, stream expects %d", c.Start, want)
	}
	for _, v := range c.Values {
		e.kernel.Push(v)
	}
	e.n += c.Len()
	return nil
}

// Segments returns the number of segments emitted so far (not counting the
// open window).
func (e *StreamEncoder) Segments() int { return e.kernel.Segments() }

// PendingPoints returns how many points sit in the open window.
func (e *StreamEncoder) PendingPoints() int { return e.kernel.Pending() }

// Close flushes the open window and returns the finished Compressed value
// (gzip-compressed, identical to the batch output for the same input).
func (e *StreamEncoder) Close() (*Compressed, error) { return e.CloseAppend(nil) }

// CloseAppend is Close in append form: the finished gzip payload is appended
// onto dst, so a caller with a request-scoped buffer (GetBytes or a retained
// slice) closes streams with zero per-op allocation beyond the Compressed
// struct itself. The returned Payload aliases dst's backing array — never
// return dst to a pool or reuse it while the Compressed is live; use
// Compressed.Clone (or Detach) to retain the payload past the buffer's
// lifetime. Buffered encoders (NewBufferedStreamEncoder) compress in batch
// and return a heap payload that does not alias dst. On error the caller
// still owns the dst slice it passed in.
//
// It is the one kernel frame writer: the batch Compress methods close
// through it too (kernelCompress), so the empty-series and negative-bound
// checks, header + body + gzip, and the Epsilon/Segments metadata live here
// only.
func (e *StreamEncoder) CloseAppend(dst []byte) (*Compressed, error) {
	if e.closed {
		return nil, errors.New("compress: already closed")
	}
	if e.n == 0 {
		return nil, errors.New("compress: empty series")
	}
	if e.epsilon < 0 {
		return nil, errNegativeBound
	}
	e.closed = true
	if bk, ok := e.kernel.(*bufferedKernel); ok {
		return bk.comp.Compress(timeseries.New("", e.start, e.interval, bk.values), e.epsilon)
	}
	frame := bytePool.get(e.n + 64)
	defer bytePool.put(frame)
	var err error
	if frame.s, err = appendHeader(frame.s, e.method, e.start, e.interval, e.n); err != nil {
		return nil, err
	}
	var segments int
	if fa, ok := e.kernel.(FinishAppender); ok {
		frame.s, segments = fa.AppendFinish(frame.s)
	} else {
		var body []byte
		body, segments = e.kernel.Finish()
		frame.s = append(frame.s, body...)
	}
	if dst, err = AppendGzip(dst, frame.s); err != nil {
		return nil, err
	}
	eps := e.epsilon
	if _, ok := e.kernel.(losslessKernel); ok {
		eps = 0
	}
	return &Compressed{
		Method:   e.method,
		Epsilon:  eps,
		N:        e.n,
		Segments: segments,
		Payload:  dst,
	}, nil
}

// Reset rewinds the encoder to compress a fresh series with the given
// geometry, keeping the kernel's scratch buffers — the amortisation that
// lets one encoder serve a whole request stream with zero steady-state
// allocation. Methods whose kernels cannot rewind return an error and the
// encoder is unchanged.
func (e *StreamEncoder) Reset(start, interval int64) error {
	r, ok := e.kernel.(kernelReseter)
	if !ok {
		return fmt.Errorf("compress: %s kernel does not support Reset", e.method)
	}
	r.reset()
	e.start, e.interval = start, interval
	e.n = 0
	e.closed = false
	return nil
}

// Release returns the kernel's pooled scratch buffers to the package pools.
// Call it when the encoder will not be reused (after Close, or to abandon an
// open stream); the encoder must not be used afterwards. Close does not
// release automatically so that Reset-based reuse keeps its buffers warm.
func (e *StreamEncoder) Release() {
	if r, ok := e.kernel.(kernelReleaser); ok {
		r.release()
	}
	e.closed = true
}
