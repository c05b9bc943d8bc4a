package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"lossyts/internal/timeseries"
)

// Method identifies a compression algorithm.
type Method string

// The compression methods evaluated in the paper.
const (
	MethodPMC     Method = "PMC"
	MethodSwing   Method = "SWING"
	MethodSZ      Method = "SZ"
	MethodGorilla Method = "GORILLA"
)

// Methods lists the lossy methods in the paper's order.
var Methods = []Method{MethodPMC, MethodSwing, MethodSZ}

// ErrorBounds is the paper's 13 piecewise relative error bounds (§3.2):
// dense below 0.1, sparser above.
var ErrorBounds = []float64{0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8}

// Compressor compresses a regular time series under a pointwise relative
// error bound (PEBLC, paper Definition 4).
type Compressor interface {
	Method() Method
	// Compress encodes s so that every decompressed value v̂ satisfies
	// |v − v̂| ≤ epsilon·|v|. Lossless methods ignore epsilon.
	Compress(s *timeseries.Series, epsilon float64) (*Compressed, error)
}

// Compressed is the stored representation of a compressed series. Payload
// is the final .gz byte stream whose length is the size used in all
// compression-ratio computations.
type Compressed struct {
	Method   Method
	Epsilon  float64
	N        int    // number of data points
	Segments int    // number of segments/models produced (Figure 3)
	Payload  []byte // gzip-compressed encoding, including the timestamp header
}

// Size returns the compressed size in bytes (the .gz file size).
func (c *Compressed) Size() int { return len(c.Payload) }

// Decompress reconstructs the time series from the payload.
func (c *Compressed) Decompress() (*timeseries.Series, error) {
	values, hdr, err := c.appendValues(nil)
	if err != nil {
		return nil, err
	}
	return timeseries.New("", int64(hdr.start), int64(hdr.interval), values), nil
}

// AppendValues decompresses the payload and appends every reconstructed
// value to dst, returning the extended slice — the decode-side mirror of
// StreamEncoder.CloseAppend. Callers with a request-scoped buffer (GetFloats
// or a retained slice) decode repeatedly without per-op slice allocation;
// the gunzipped frame lives in a pooled buffer for the duration of the call.
// On error the (possibly extended) dst is returned alongside, so a pooled
// buffer is never lost.
func (c *Compressed) AppendValues(dst []float64) ([]float64, error) {
	out, _, err := c.appendValues(dst)
	return out, err
}

func (c *Compressed) appendValues(dst []float64) ([]float64, header, error) {
	vs, hdr, raw, err := openPayload(c)
	if err != nil {
		return dst, hdr, err
	}
	defer bytePool.put(raw)
	base := len(dst)
	hint := allocHint(int(hdr.count)) + 1 // never grow by zero
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, hint)
		}
		n, err := vs.Next(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, hdr, err
		}
		if n == 0 {
			// A ValueStream yields progress or an error; a stall here would
			// loop forever on a misbehaving external registration.
			return dst, hdr, io.ErrUnexpectedEOF
		}
	}
	if got := len(dst) - base; got != int(hdr.count) {
		return dst, hdr, fmt.Errorf("compress: payload decoded to %d values, header claims %d", got, hdr.count)
	}
	return dst, hdr, nil
}

// openPayload is the one way into a payload, shared by AppendValues and
// NewStreamDecoder: gunzip → header → method check → lookup → value stream.
// It inflates only the 11-byte header before checking the method code and
// the method match, so a payload that is not what it claims to be fails
// before its body is inflated. The body is then inflated into a pooled
// buffer that the returned value stream reads in place; the caller puts raw
// back once it is done with vs.
func openPayload(c *Compressed) (vs ValueStream, hdr header, raw *sbuf[byte], err error) {
	g, err := openGzip(c.Payload)
	if err != nil {
		return nil, hdr, nil, err
	}
	defer g.release()
	if _, err := io.ReadFull(&g.zr, g.head[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, hdr, nil, err
	}
	if hdr, _, err = decodeHeader(g.head[:]); err != nil {
		return nil, hdr, nil, err
	}
	if hdr.method != c.Method {
		return nil, hdr, nil, fmt.Errorf("compress: payload method %s does not match %s", hdr.method, c.Method)
	}
	reg, err := lookup(c.Method)
	if err != nil {
		return nil, hdr, nil, err
	}
	raw = bytePool.get(2 * len(c.Payload))
	if raw.s, err = appendInflated(raw.s, &g.zr); err == nil {
		if reg.DecodeStream != nil {
			vs, err = reg.DecodeStream(raw.s, int(hdr.count))
		} else {
			var values []float64
			values, err = reg.Decode(raw.s, int(hdr.count))
			vs = &sliceValues{values: values}
		}
	}
	if err != nil {
		bytePool.put(raw)
		return nil, hdr, nil, err
	}
	return vs, hdr, raw, nil
}

// New returns the compressor implementing the given method, consulting the
// registry so externally registered methods resolve exactly like the
// built-ins. Unknown names yield an *UnknownMethodError.
func New(m Method) (Compressor, error) {
	reg, err := lookup(m)
	if err != nil {
		return nil, err
	}
	return reg.New()
}

// header is the shared stream header described in §3.2: the first timestamp
// as a 32-bit integer, the sampling interval as a 16-bit integer, and the
// number of data points (so decompression knows when to stop).
type header struct {
	method   Method
	start    uint32
	interval uint16
	count    uint32
}

// headerLen is the size of the shared stream header: method code, start,
// interval and count.
const headerLen = 11

// EncodeHeader writes the shared stream header for m into buf. Compressor
// implementations — built-in and external — call it first, append their
// encoded body, and hand the buffer to Finish.
func EncodeHeader(buf *bytes.Buffer, m Method, s *timeseries.Series) error {
	var scratch [headerLen]byte
	hdr, err := appendHeader(scratch[:0], m, s.Start, s.Interval, s.Len())
	if err != nil {
		return err
	}
	buf.Write(hdr)
	return nil
}

// appendHeader writes the shared stream header onto dst and returns the
// extended slice. It is the one header writer: EncodeHeader and the kernel
// close path (StreamEncoder.CloseAppend) both frame payloads through it.
func appendHeader(dst []byte, m Method, start, interval int64, n int) ([]byte, error) {
	code, err := methodCode(m)
	if err != nil {
		return dst, err
	}
	if start < 0 || start > math.MaxUint32 {
		return dst, fmt.Errorf("compress: start timestamp %d does not fit the 32-bit header field", start)
	}
	if interval < 0 || interval > math.MaxUint16 {
		return dst, fmt.Errorf("compress: interval %d does not fit the 16-bit header field", interval)
	}
	var scratch [4]byte
	dst = append(dst, code)
	binary.LittleEndian.PutUint32(scratch[:], uint32(start))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(interval))
	dst = append(dst, scratch[:2]...)
	binary.LittleEndian.PutUint32(scratch[:], uint32(n))
	dst = append(dst, scratch[:4]...)
	return dst, nil
}

// kernelCompress is the batch path behind the built-in Compress methods:
// it builds the method's stream kernel with the constructor its registration
// uses, pushes the whole series through a StreamEncoder and closes it, so
// batch and streamed payloads are byte-identical by construction and there
// is one frame writer (StreamEncoder.CloseAppend). The payload is a fresh
// heap allocation, because batch callers retain it indefinitely; the
// kernel's pooled scratch is released before returning.
func kernelCompress(m Method, s *timeseries.Series, epsilon float64, absolute bool, newKernel func(epsilon float64, absolute bool) (StreamKernel, error)) (*Compressed, error) {
	k, err := newKernel(epsilon, absolute)
	if err != nil {
		return nil, err
	}
	e := StreamEncoder{method: m, epsilon: epsilon, start: s.Start, interval: s.Interval, n: s.Len(), kernel: k}
	defer e.Release()
	for _, v := range s.Values {
		k.Push(v)
	}
	return e.CloseAppend(nil)
}

// allocHint caps the initial capacity of decode output slices. The claimed
// count comes from an untrusted header field, so pre-allocating it in full
// would let a corrupt (or fuzzed) 20-byte frame demand gigabytes before any
// body byte is validated; growth past the hint is amortised by append.
func allocHint(count int) int {
	const maxPrealloc = 1 << 16
	if count < maxPrealloc {
		return count
	}
	return maxPrealloc
}

func decodeHeader(raw []byte) (header, []byte, error) {
	if len(raw) < headerLen {
		return header{}, nil, io.ErrUnexpectedEOF
	}
	m, err := methodFromCode(raw[0])
	if err != nil {
		return header{}, nil, err
	}
	return header{
		method:   m,
		start:    binary.LittleEndian.Uint32(raw[1:5]),
		interval: binary.LittleEndian.Uint16(raw[5:7]),
		count:    binary.LittleEndian.Uint32(raw[7:11]),
	}, raw[headerLen:], nil
}

// Finish gzips the encoded stream (header plus body, as produced by
// EncodeHeader followed by the method's body encoding) and assembles the
// Compressed value whose payload length is the size used in all
// compression-ratio computations.
func Finish(m Method, epsilon float64, s *timeseries.Series, body []byte, segments int) (*Compressed, error) {
	gz, err := GzipBytes(body)
	if err != nil {
		return nil, err
	}
	return &Compressed{Method: m, Epsilon: epsilon, N: s.Len(), Segments: segments, Payload: gz}, nil
}

// RawGzipSize returns the size in bytes of the raw dataset's .gz encoding,
// the numerator of the paper's compression ratio (Eq. 3). As in the paper,
// the raw dataset is the exported CSV — one "timestamp,value" row per data
// point, the value as fmt's %g prints it — with gzip applied directly to it
// (§3.2, §3.5). Rows stream through the gzip writer into a counting sink,
// so only the size is computed and the CSV is never materialised; deflate
// output depends only on the input bytes, not on write boundaries, so the
// count matches what gzipping the whole buffer would produce. The gzip
// writer comes from the gzip stage's pool, Reset to a state equal to a new
// writer's, and every row reuses one buffer.
func RawGzipSize(s *timeseries.Series) (int, error) {
	var cw countingWriter
	g := gzipWriterPool.Get().(*pooledGzipWriter)
	defer gzipWriterPool.Put(g)
	g.zw.Reset(&cw)
	row := make([]byte, 0, 64) // a row is at most 19 + 1 + 24 + 1 bytes
	for i, v := range s.Values {
		row = time.Unix(s.TimeAt(i), 0).UTC().AppendFormat(row[:0], "2006-01-02 15:04:05")
		row = append(row, ',')
		row = append(strconv.AppendFloat(row, v, 'g', -1, 64), '\n')
		if _, err := g.zw.Write(row); err != nil {
			return 0, err
		}
	}
	if err := g.zw.Close(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// countingWriter discards its input and records how many bytes passed.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// Ratio returns the compression ratio raw/compressed for a compressed
// series (paper Eq. 3, both sizes as .gz byte counts).
func Ratio(s *timeseries.Series, c *Compressed) (float64, error) {
	raw, err := RawGzipSize(s)
	if err != nil {
		return 0, err
	}
	if c.Size() == 0 {
		return 0, fmt.Errorf("compress: empty payload")
	}
	return float64(raw) / float64(c.Size()), nil
}
