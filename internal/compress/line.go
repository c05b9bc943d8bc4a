package compress

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// The line-segment wire layer shared by the piecewise-linear codecs (Swing
// and CAMEO): each segment is `u16 count | f64 slope | f64 intercept`,
// reconstructed as v_i = intercept + slope·i for local index i. Swing has
// always written this form; CAMEO emits the identical grammar through the
// same emitter, so both share one decoder (lineValues).

// lineEmitter accumulates line segments into a pooled body buffer. Kernels
// embed it and inherit the emit/reset/release lifecycle.
type lineEmitter struct {
	body     *sbuf[byte]
	segments int
}

// emit appends one segment record.
func (e *lineEmitter) emit(count int, slope, intercept float64) {
	if e.body == nil {
		e.body = bytePool.get(256)
	}
	var scratch [18]byte
	binary.LittleEndian.PutUint16(scratch[:2], uint16(count))
	binary.LittleEndian.PutUint64(scratch[2:10], math.Float64bits(slope))
	binary.LittleEndian.PutUint64(scratch[10:], math.Float64bits(intercept))
	e.body.s = append(e.body.s, scratch[:]...)
	e.segments++
}

// bytes returns the accumulated body (aliases the pooled buffer).
func (e *lineEmitter) bytes() []byte {
	if e.body == nil {
		return nil
	}
	return e.body.s
}

// appendBody copies the accumulated body onto dst in one append.
func (e *lineEmitter) appendBody(dst []byte) []byte { return append(dst, e.bytes()...) }

// resetBody rewinds the emitter for a fresh series, keeping its buffer.
func (e *lineEmitter) resetBody() {
	e.segments = 0
	if e.body != nil {
		e.body.s = e.body.s[:0]
	}
}

// releaseBody returns the body buffer to the pool.
func (e *lineEmitter) releaseBody() {
	bytePool.put(e.body)
	e.body = nil
}

// lineValues replays line segments incrementally: the carried state is one
// segment (its remaining length, line coefficients, and local index).
type lineValues struct {
	body      []byte
	total     int
	pos       int
	remaining int
	segLeft   int
	idx       int // local index within the open segment
	slope     float64
	intercept float64
}

func newLineValues(body []byte, count int) *lineValues {
	return &lineValues{body: body, total: count, remaining: count}
}

// rewind restarts the replay from the first value (see valueRewinder).
func (p *lineValues) rewind() {
	p.pos, p.remaining, p.segLeft, p.idx = 0, p.total, 0, 0
	p.slope, p.intercept = 0, 0
}

func (p *lineValues) Next(dst []float64) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && p.remaining > 0 {
		if p.segLeft == 0 {
			if p.pos+18 > len(p.body) {
				return n, io.ErrUnexpectedEOF
			}
			seg := int(binary.LittleEndian.Uint16(p.body[p.pos : p.pos+2]))
			p.slope = math.Float64frombits(binary.LittleEndian.Uint64(p.body[p.pos+2 : p.pos+10]))
			p.intercept = math.Float64frombits(binary.LittleEndian.Uint64(p.body[p.pos+10 : p.pos+18]))
			p.pos += 18
			if seg == 0 || seg > p.remaining {
				return n, errors.New("compress: corrupt segment length")
			}
			p.segLeft = seg
			p.idx = 0
		}
		dst[n] = p.intercept + p.slope*float64(p.idx)
		n++
		p.idx++
		p.segLeft--
		p.remaining--
	}
	return n, nil
}
