package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file is the predictive-codec contract: the decomposition of an
// error-bounded lossy compressor into three stages —
//
//	Predictor         guesses the next value from the reconstructed history,
//	UniformQuantiser  maps the residual to an integer code under the bound,
//	HuffmanCoder      packs the finished code stream into payload bytes,
//
// plus the shared kernel base (kernelBase, predictiveKernel) that owns the
// pooled-buffer lifecycle every StreamKernel needs: scratch drawn from the
// package pools at construction, rewound by reset, returned by release, and
// appended through the no-copy FinishAppender path. The built-in paths are
// instances of these stages rather than private hardcodes — SZ's residual
// quantisation is a UniformQuantiser and its Huffman-with-raw-fallback code
// section is the HuffmanCoder; Gorilla's XOR chain is XOREncoder/XORDecoder
// (xor.go); Swing's and CAMEO's segment wire form is the line layer
// (line.go); LFZip (lfzip.go) is assembled purely from stage instances on
// predictiveKernel — so a new codec composes existing stages and inherits
// zero-allocation steady state instead of reimplementing it.

// Predictor is the reconstruction-side value predictor of a predictive
// codec. Predict returns the guess for the next value; Update feeds back the
// value the decoder will reconstruct (never the original — encoder and
// decoder must run the predictor over identical inputs, or their predictions
// drift apart and the error bound silently breaks). Implementations must be
// deterministic and allocation-free per call.
type Predictor interface {
	Predict() float64
	Update(recon float64)
	// Reset rewinds the predictor to its initial state, keeping any scratch.
	Reset()
}

// UniformQuantiser is the linear-scale residual quantiser shared by SZ and
// LFZip: codes live in [-Radius, Radius] on a grid of step 2·precision, the
// stored code is biased by Radius+1 so 0 marks an exception, and a
// reconstruction that would violate the configured bound is rejected as an
// exception too. Precision is calibrated per block (SetPrecision) — for the
// paper's pointwise relative bound it derives from the block's smallest
// non-zero magnitude (BlockPrecision), so the relative bound holds at every
// point; Absolute switches to the classic |v − v̂| ≤ ε bound.
type UniformQuantiser struct {
	Epsilon  float64
	Absolute bool
	Radius   int

	precision float64
}

// NewUniformQuantiser returns a quantiser with the SZ code radius.
func NewUniformQuantiser(epsilon float64, absolute bool) *UniformQuantiser {
	return &UniformQuantiser{Epsilon: epsilon, Absolute: absolute, Radius: szQuantRadius}
}

// BlockPrecision calibrates the quantisation step for a block of values and
// returns the float32 the encoder must store so the decoder dequantises with
// the exact same step. In absolute mode the step is the bound itself.
func (q *UniformQuantiser) BlockPrecision(block []float64) float32 {
	p := szBlockPrecision(block, q.Epsilon)
	if q.Absolute {
		p = roundDown32(q.Epsilon)
	}
	q.SetPrecision(p)
	return p
}

// SetPrecision installs a previously stored precision (decode side).
func (q *UniformQuantiser) SetPrecision(p float32) { q.precision = float64(p) }

// Quantise maps v's residual against pred to an integer code over the
// calibrated precision. ok=false marks an exception: the value cannot be
// represented within the bound and is stored verbatim.
func (q *UniformQuantiser) Quantise(v, pred float64) (int, float64, bool) {
	code, recon, ok := szQuantize(v, pred, q.precision, q.Epsilon, q.Absolute)
	if !ok || code < -q.Radius || code > q.Radius {
		return 0, 0, false
	}
	return code, recon, true
}

// Dequantise inverts Quantise exactly: the reconstruction the encoder
// committed to when it emitted the code.
func (q *UniformQuantiser) Dequantise(code int, pred float64) float64 {
	return pred + float64(code)*2*q.precision
}

// Code-section encodings shared by every Huffman-framed codec (SZ, LFZip).
const (
	codeSectionHuffman = 0 // u32 length + Huffman bytes
	codeSectionRaw     = 1 // u32 count + raw little-endian uint16 codes
	codeSectionEmpty   = 2 // no codes at all
)

// HuffmanCoder is the shared entropy stage behind SZ and LFZip: the pooled
// whole-stream Huffman coder with the historical raw fallback, framed as a
// self-describing code section (encoding byte, then the encoding-specific
// body). The bytes are identical to what SZ's Finish always wrote — the
// framing moved here, it did not change.
type HuffmanCoder struct{}

// AppendCodes writes the code stream's self-framing section onto dst and
// returns the extended slice. The Huffman stage appends in place behind a
// length-backfill slot; if it fails (pathological code lengths) the appended
// bytes are truncated away and the raw encoding takes their place, so
// AppendCodes never fails.
func (HuffmanCoder) AppendCodes(dst []byte, codes []uint16) []byte {
	if len(codes) == 0 {
		return append(dst, codeSectionEmpty)
	}
	var scratch [4]byte
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // encoding byte + length backfill slot
	out, err := AppendHuffman(dst, codes)
	if err == nil {
		dst = out
		dst[mark] = codeSectionHuffman
		binary.LittleEndian.PutUint32(dst[mark+1:mark+5], uint32(len(dst)-mark-5))
		return dst
	}
	dst = dst[:mark]
	dst = append(dst, codeSectionRaw)
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(codes)))
	dst = append(dst, scratch[:]...)
	for _, c := range codes {
		binary.LittleEndian.PutUint16(scratch[:2], c)
		dst = append(dst, scratch[:2]...)
	}
	return dst
}

// DecodeCodes parses the code section starting at body[pos], in either
// encoding, and returns the codes plus the offset of the first byte after
// the section.
func (HuffmanCoder) DecodeCodes(body []byte, pos int) ([]uint16, int, error) {
	if pos >= len(body) {
		return nil, pos, io.ErrUnexpectedEOF
	}
	encoding := body[pos]
	pos++
	switch encoding {
	case codeSectionHuffman:
		if pos+4 > len(body) {
			return nil, pos, io.ErrUnexpectedEOF
		}
		length := int(binary.LittleEndian.Uint32(body[pos : pos+4]))
		pos += 4
		if length < 0 || pos+length > len(body) {
			return nil, pos, io.ErrUnexpectedEOF
		}
		codes, err := HuffmanDecode(body[pos : pos+length])
		if err != nil {
			return nil, pos, err
		}
		return codes, pos + length, nil
	case codeSectionRaw:
		if pos+4 > len(body) {
			return nil, pos, io.ErrUnexpectedEOF
		}
		m := int(binary.LittleEndian.Uint32(body[pos : pos+4]))
		pos += 4
		if m < 0 || pos+2*m > len(body) {
			return nil, pos, io.ErrUnexpectedEOF
		}
		codes := make([]uint16, m)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint16(body[pos : pos+2])
			pos += 2
		}
		return codes, pos, nil
	case codeSectionEmpty:
		return nil, pos, nil
	default:
		return nil, pos, fmt.Errorf("compress: unknown code-section encoding %d", encoding)
	}
}

// appendExceptions writes the verbatim-value section (u32 count + raw
// float64 bits) shared by the block codecs.
func appendExceptions(dst []byte, exceptions []float64) []byte {
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(exceptions)))
	dst = append(dst, scratch[:4]...)
	for _, v := range exceptions {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// parseExceptions parses the verbatim-value section starting at body[pos].
func parseExceptions(body []byte, pos int) ([]float64, int, error) {
	if pos+4 > len(body) {
		return nil, pos, io.ErrUnexpectedEOF
	}
	nex := int(binary.LittleEndian.Uint32(body[pos : pos+4]))
	pos += 4
	if nex < 0 || pos+8*nex > len(body) {
		return nil, pos, io.ErrUnexpectedEOF
	}
	exceptions := make([]float64, nex)
	for i := range exceptions {
		exceptions[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[pos : pos+8]))
		pos += 8
	}
	return exceptions, pos, nil
}

// kernelBase owns the pooled scratch every block-structured kernel carries:
// the open block, per-block metadata, the quantisation-code stream, and the
// exception values, plus the run-based segment counter of Figure 3. Kernels
// embed it and inherit the pool lifecycle — initBuffers at construction,
// resetBuffers from their reset hook, releaseBuffers from release — so a new
// codec gets zero-allocation steady state without touching a pool directly.
type kernelBase struct {
	bs         int
	block      []float64
	meta       *sbuf[byte]
	codes      *sbuf[uint16]
	exceptions *sbuf[float64]
	nblocks    int

	segments  int // runs of identical reconstructed values (Figure 3)
	lastRecon float64
	reconSeen bool
}

// initBuffers draws the scratch buffers from the package pools.
func (b *kernelBase) initBuffers(bs int) {
	b.bs = bs
	b.block = make([]float64, 0, bs)
	b.meta = bytePool.get(512)
	b.codes = u16Pool.get(1024)
	b.exceptions = floatPool.get(64)
}

// resetBuffers rewinds the base for a fresh series, keeping all scratch.
func (b *kernelBase) resetBuffers() {
	b.block = b.block[:0]
	b.meta.s = b.meta.s[:0]
	b.codes.s = b.codes.s[:0]
	b.exceptions.s = b.exceptions.s[:0]
	b.nblocks = 0
	b.segments, b.lastRecon, b.reconSeen = 0, 0, false
}

// releaseBuffers returns the scratch to the pools; the kernel must not be
// used afterwards.
func (b *kernelBase) releaseBuffers() {
	bytePool.put(b.meta)
	u16Pool.put(b.codes)
	floatPool.put(b.exceptions)
	b.meta, b.codes, b.exceptions = nil, nil, nil
}

// countRecon feeds the run-based segment counter with one reconstructed
// value.
func (b *kernelBase) countRecon(r float64) {
	if !b.reconSeen {
		b.segments = 1
		b.reconSeen = true
	} else if r != b.lastRecon {
		b.segments++
	}
	b.lastRecon = r
}

// appendBody writes the block-codec payload body onto dst: the preamble
// (block size and block count), the per-block metadata, the Huffman code
// section and the exception section. SZ and the predictive kernel share it.
func (b *kernelBase) appendBody(dst []byte) []byte {
	var scratch [6]byte
	binary.LittleEndian.PutUint16(scratch[:2], uint16(b.bs))
	binary.LittleEndian.PutUint32(scratch[2:6], uint32(b.nblocks))
	dst = append(dst, scratch[:6]...)
	dst = append(dst, b.meta.s...)
	dst = HuffmanCoder{}.AppendCodes(dst, b.codes.s)
	return appendExceptions(dst, b.exceptions.s)
}

// Segments reports the runs of identical reconstructed values seen so far.
func (b *kernelBase) Segments() int { return b.segments }

// Pending reports the points buffered in the open block.
func (b *kernelBase) Pending() int { return len(b.block) }

// parseBlockHeader reads the preamble appendBody wrote.
func parseBlockHeader(body []byte) (bs, nblocks, pos int, err error) {
	if len(body) < 6 {
		return 0, 0, 0, io.ErrUnexpectedEOF
	}
	bs = int(binary.LittleEndian.Uint16(body[:2]))
	nblocks = int(binary.LittleEndian.Uint32(body[2:6]))
	if bs <= 0 || nblocks < 0 {
		return 0, 0, 0, errors.New("compress: corrupt block header")
	}
	return bs, nblocks, 6, nil
}

// predictiveKernel is the fully assembled predictive codec: one Predictor
// driven across the whole stream, a UniformQuantiser recalibrated per block,
// and the HuffmanCoder over the finished code stream. Its wire form is
//
//	u16 block size | u32 block count | f32 precision per block |
//	code section (HuffmanCoder) | exception section
//
// with the stored code biased by Radius+1 and 0 marking an exception, the
// same residual grammar as SZ. LFZip is an instance (NLMS predictor +
// uniform quantiser); any external predictor slots in the same way. It
// implements StreamKernel, FinishAppender, and the reset/release lifecycle.
type predictiveKernel struct {
	kernelBase
	pred  Predictor
	quant *UniformQuantiser
}

// newPredictiveKernel assembles a kernel from its predictor and quantiser.
func newPredictiveKernel(bs int, pred Predictor, quant *UniformQuantiser) *predictiveKernel {
	k := &predictiveKernel{pred: pred, quant: quant}
	k.initBuffers(bs)
	return k
}

// Push implements StreamKernel: values buffer into the open block and each
// full block is encoded immediately, so carried state stays O(block) plus
// the code stream the Huffman coder needs whole.
func (k *predictiveKernel) Push(v float64) {
	k.block = append(k.block, v)
	if len(k.block) == k.bs {
		k.encodeBlock()
	}
}

func (k *predictiveKernel) encodeBlock() {
	k.nblocks++
	precision := k.quant.BlockPrecision(k.block)
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(precision))
	k.meta.s = append(k.meta.s, scratch[:]...)
	for _, v := range k.block {
		pred := k.pred.Predict()
		code, recon, ok := k.quant.Quantise(v, pred)
		if !ok {
			k.codes.s = append(k.codes.s, 0)
			k.exceptions.s = append(k.exceptions.s, v)
			recon = v
		} else {
			k.codes.s = append(k.codes.s, uint16(code+k.quant.Radius+1))
		}
		k.pred.Update(recon)
		k.countRecon(recon)
	}
	k.block = k.block[:0]
}

// Finish implements StreamKernel.
func (k *predictiveKernel) Finish() ([]byte, int) { return k.AppendFinish(nil) }

// AppendFinish implements FinishAppender: the payload body is assembled
// directly onto dst through the shared Huffman code section.
func (k *predictiveKernel) AppendFinish(dst []byte) ([]byte, int) {
	if len(k.block) > 0 {
		k.encodeBlock()
	}
	return k.appendBody(dst), k.segments
}

// reset rewinds the kernel for a fresh series, keeping all scratch buffers.
func (k *predictiveKernel) reset() {
	k.resetBuffers()
	k.pred.Reset()
}

// release returns the scratch buffers to their pools.
func (k *predictiveKernel) release() { k.releaseBuffers() }

// NewPredictiveKernel assembles a StreamKernel from the contract stages —
// the exported face of predictiveKernel, so an externally registered codec
// can pair its own Predictor with the shared quantiser and Huffman stages
// and inherit the pooled zero-allocation lifecycle. Register it via
// Registration.NewStream and decode its payloads with
// DecodePredictiveStream using the same kind of predictor.
func NewPredictiveKernel(blockSize int, pred Predictor, quant *UniformQuantiser) StreamKernel {
	return newPredictiveKernel(blockSize, pred, quant)
}

// DecodePredictiveStream parses a NewPredictiveKernel payload body and
// returns its incremental value replay. pred must be a fresh predictor of
// the same kind the encoder used.
func DecodePredictiveStream(pred Predictor, body []byte, count int) (ValueStream, error) {
	blocks, err := parsePredictiveBody(body, count)
	if err != nil {
		return nil, err
	}
	return newPredictiveValues(blocks, pred, NewUniformQuantiser(0, false), count), nil
}

// predictiveBlocks is the parsed form of a predictiveKernel payload.
type predictiveBlocks struct {
	bs         int
	precisions []float32
	codes      []uint16
	exceptions []float64
}

// parsePredictiveBody splits a predictiveKernel payload body into block
// precisions, codes, and exceptions.
func parsePredictiveBody(body []byte, count int) (*predictiveBlocks, error) {
	bs, nblocks, pos, err := parseBlockHeader(body)
	if err != nil {
		return nil, err
	}
	if want := (count + bs - 1) / bs; nblocks != want {
		return nil, fmt.Errorf("compress: %d blocks of %d cannot cover %d values", nblocks, bs, count)
	}
	if pos+4*nblocks > len(body) {
		return nil, io.ErrUnexpectedEOF
	}
	precisions := make([]float32, nblocks)
	for i := range precisions {
		precisions[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[pos : pos+4]))
		pos += 4
	}
	codes, pos, err := HuffmanCoder{}.DecodeCodes(body, pos)
	if err != nil {
		return nil, err
	}
	if len(codes) != count {
		return nil, fmt.Errorf("compress: code stream has %d entries, want %d", len(codes), count)
	}
	exceptions, _, err := parseExceptions(body, pos)
	if err != nil {
		return nil, err
	}
	return &predictiveBlocks{bs: bs, precisions: precisions, codes: codes, exceptions: exceptions}, nil
}

// predictiveValues replays a predictiveKernel payload incrementally: the
// carried state is the predictor (reset and re-driven on rewind) and the
// block/code/exception cursors.
type predictiveValues struct {
	blocks *predictiveBlocks
	pred   Predictor
	quant  *UniformQuantiser

	total     int
	remaining int
	i, ei     int // value and exception cursors
}

func newPredictiveValues(blocks *predictiveBlocks, pred Predictor, quant *UniformQuantiser, count int) *predictiveValues {
	return &predictiveValues{blocks: blocks, pred: pred, quant: quant, total: count, remaining: count}
}

// rewind restarts the replay from the first value (see valueRewinder).
func (p *predictiveValues) rewind() {
	p.remaining = p.total
	p.i, p.ei = 0, 0
	p.pred.Reset()
}

func (p *predictiveValues) Next(dst []float64) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && p.remaining > 0 {
		if p.i%p.blocks.bs == 0 {
			p.quant.SetPrecision(p.blocks.precisions[p.i/p.blocks.bs])
		}
		stored := p.blocks.codes[p.i]
		var v float64
		if stored == 0 {
			if p.ei >= len(p.blocks.exceptions) {
				return n, errors.New("compress: exception stream exhausted")
			}
			v = p.blocks.exceptions[p.ei]
			p.ei++
		} else {
			v = p.quant.Dequantise(int(stored)-p.quant.Radius-1, p.pred.Predict())
		}
		p.pred.Update(v)
		dst[n] = v
		n++
		p.i++
		p.remaining--
	}
	if p.remaining == 0 && p.ei != len(p.blocks.exceptions) {
		return n, errors.New("compress: trailing exceptions")
	}
	return n, nil
}
