package compress

import (
	"errors"
	"io"

	"lossyts/internal/timeseries"
)

// ValueStream yields a payload's reconstructed values incrementally — the
// decode-side counterpart of StreamKernel. Implementations are registered
// through Registration.DecodeStream; external methods that register only a
// batch Decode are served through a slice adapter.
type ValueStream interface {
	// Next fills dst with up to len(dst) reconstructed values and returns
	// how many were produced. It returns 0, io.EOF once every value has been
	// yielded; any other error means the payload is corrupt. A call may
	// return n > 0 alongside an error when corruption is detected after
	// valid values were produced.
	Next(dst []float64) (int, error)
}

// valueRewinder is implemented by value streams that can restart the replay
// from the first value without re-parsing the payload body — the decode-side
// counterpart of kernelReseter, used by the zero-allocation decode tests and
// benchmarks.
type valueRewinder interface{ rewind() }

// sliceValues serves a batch-decoded slice through the ValueStream
// interface, the adapter for registrations without DecodeStream.
type sliceValues struct {
	values []float64
	pos    int
}

func (s *sliceValues) Next(dst []float64) (int, error) {
	if s.pos >= len(s.values) {
		return 0, io.EOF
	}
	n := copy(dst, s.values[s.pos:])
	s.pos += n
	return n, nil
}

func (s *sliceValues) rewind() { s.pos = 0 }

// StreamDecoder reconstructs a compressed series chunk by chunk, holding
// O(chunk) state instead of materialising the full series: each built-in
// method replays its payload with bounded carried state (PMC/Swing: the open
// segment; Gorilla: the previous value and bit window; SZ: the block cursor
// and two reconstructed values; SeasonalPMC: the profile and open segment).
//
// StreamDecoder implements timeseries.Source, so a decoded payload plugs
// directly into anything that consumes chunks — including Series.Append and
// timeseries.Collect for callers that do want the whole series.
//
// The gzip-compressed payload is decoded up front (the encoded body is tiny
// relative to the series — that is the point of compression); what is never
// materialised is the O(n) value slice.
type StreamDecoder struct {
	vs       ValueStream
	start    int64
	interval int64
	count    int
	pos      int
	buf      []float64
	err      error
	// Pooled backing for the gunzipped body (which the per-method value
	// streams read from in place) and the chunk buffer; see Release.
	raw   *sbuf[byte]
	chunk *sbuf[float64]
}

// NewStreamDecoder returns a chunked decoder over c's payload. Non-positive
// chunk sizes fall back to timeseries.DefaultChunkSize.
func NewStreamDecoder(c *Compressed, chunkSize int) (*StreamDecoder, error) {
	if chunkSize <= 0 {
		chunkSize = timeseries.DefaultChunkSize
	}
	vs, hdr, raw, err := openPayload(c)
	if err != nil {
		return nil, err
	}
	chunk := floatPool.get(chunkSize)
	return &StreamDecoder{
		vs:       vs,
		start:    int64(hdr.start),
		interval: int64(hdr.interval),
		count:    int(hdr.count),
		buf:      chunk.s[:chunkSize],
		raw:      raw,
		chunk:    chunk,
	}, nil
}

// Release returns the decoder's pooled buffers (the gunzipped body and the
// chunk buffer) to the package pools. Call it once the stream is drained or
// abandoned; the decoder — and any chunk it previously yielded — must not be
// used afterwards. Decoders that are simply dropped without Release remain
// correct; the buffers are then reclaimed by the GC instead of reused.
func (d *StreamDecoder) Release() {
	bytePool.put(d.raw)
	floatPool.put(d.chunk)
	d.raw, d.chunk = nil, nil
	d.vs = nil
	d.buf = nil
	d.pos = d.count // Next now reports end-of-stream
}

// Len returns the total number of values the payload reconstructs to.
func (d *StreamDecoder) Len() int { return d.count }

// Start returns the first timestamp of the reconstructed series.
func (d *StreamDecoder) Start() int64 { return d.start }

// Interval returns the sampling interval of the reconstructed series.
func (d *StreamDecoder) Interval() int64 { return d.interval }

// Next returns the next reconstructed chunk. The chunk's Values alias an
// internal buffer that is reused on the following call — the Source
// contract; copy (e.g. via Series.Append) to retain. ok is false at end of
// stream or on error; check Err to distinguish.
func (d *StreamDecoder) Next() (timeseries.Chunk, bool) {
	if d.err != nil || d.pos >= d.count {
		return timeseries.Chunk{}, false
	}
	want := d.buf
	if left := d.count - d.pos; left < len(want) {
		want = want[:left]
	}
	n, err := d.vs.Next(want)
	switch {
	case err == nil:
	case errors.Is(err, io.EOF):
		if d.pos+n < d.count {
			d.err = io.ErrUnexpectedEOF
		}
	default:
		d.err = err
	}
	if n == 0 {
		if d.err == nil && d.pos < d.count {
			// A well-formed stream yields progress until count is reached.
			d.err = io.ErrUnexpectedEOF
		}
		return timeseries.Chunk{}, false
	}
	c := timeseries.Chunk{
		Start:    d.start + int64(d.pos)*d.interval,
		Interval: d.interval,
		Values:   d.buf[:n],
	}
	d.pos += n
	return c, true
}

// Err returns the first corruption error encountered, or nil after a clean
// end of stream.
func (d *StreamDecoder) Err() error { return d.err }
