package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"lossyts/internal/timeseries"
)

// SZ implements an SZ-style error-bounded lossy compressor (Liang et al.,
// Big Data 2018; the paper uses SZ 2.1 via libpressio). The series is split
// into non-overlapping equal-sized blocks; for each block the best-fit
// predictor is chosen among the classic Lorenzo predictor (previous value),
// the second-order Lorenzo predictor, and a block-local linear regression.
// Prediction residuals are quantised on a linear scale, the quantisation
// codes are Huffman-encoded, and gzip is applied as the final lossless
// stage — the same pipeline as SZ 2.1 (§3.2).
//
// The pointwise relative bound is realised as in SZ's point-wise-relative
// mode: each block uses an absolute precision derived from the smallest
// non-zero magnitude in the block, so the bound holds for every point.
// Zero values and residuals outside the quantisation range are stored
// verbatim ("unpredictable" values in SZ terminology).
type SZ struct {
	// BlockSize is the number of points per block (default 128).
	BlockSize int
	// Absolute switches to the classic absolute bound |v − v̂| ≤ ε (used by
	// the ablation benches); the paper's evaluation uses the relative bound.
	Absolute bool
}

// NewSZ returns an SZ compressor with the default block size.
func NewSZ() SZ { return SZ{BlockSize: 128} }

// Method returns MethodSZ.
func (SZ) Method() Method { return MethodSZ }

func init() {
	Register(Registration{
		Method:       MethodSZ,
		Code:         3,
		Lossy:        true,
		New:          func() (Compressor, error) { return NewSZ(), nil },
		NewStream:    NewSZ().newStream,
		DecodeStream: szDecodeStream,
	})
}

// SZ block predictor modes.
const (
	szModeLorenzo    = 0 // predict with the previous decompressed value
	szModeLorenzo2   = 1 // predict with 2·d[i-1] − d[i-2]
	szModeRegression = 2 // predict with a block-local line (float32 coefficients)
	szModeConstant   = 3 // the whole block is one repeated exact value
)

const szQuantRadius = 32767 // codes in [-radius, radius]; stored code 0 marks an exception

// Compress encodes s under the pointwise relative bound epsilon. The batch
// path drives the same streaming kernel as StreamEncoder, so both produce
// identical bytes by construction.
func (z SZ) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	return kernelCompress(MethodSZ, s, epsilon, z.Absolute, z.newStream)
}

// szStream is SZ's incremental kernel. Prediction needs only the last two
// reconstructed values (Lorenzo/Lorenzo2) plus the current block, so the
// carried state is one block buffer, the two-value reconstruction history,
// and the accumulated block metadata. The quantisation codes must be kept
// until Finish — the Huffman table is built over the whole series, exactly
// as SZ 2.1 does — so the kernel holds 2 bytes per point rather than being
// strictly O(block); that is still 4× smaller than the values themselves
// and is the price of byte-identity with the batch format. The pooled
// block, metadata, code and exception buffers and the run-based segment
// count (Figure 3: SZ's quantisation produces a staircase, each run one
// segment) are kernelBase's.
type szStream struct {
	kernelBase
	quant *UniformQuantiser
	hist  [2]float64 // last two reconstructed values
	nhist int
}

// newStream is SZ's kernel constructor at z's block size (128 when unset);
// the registration uses it at the default.
func (z SZ) newStream(epsilon float64, absolute bool) (StreamKernel, error) {
	bs := z.BlockSize
	if bs <= 0 {
		bs = 128
	}
	if bs > math.MaxUint16 {
		return nil, fmt.Errorf("compress: SZ block size %d too large", bs)
	}
	k := &szStream{quant: NewUniformQuantiser(epsilon, absolute)}
	k.initBuffers(bs)
	return k, nil
}

func (k *szStream) Push(v float64) {
	k.block = append(k.block, v)
	if len(k.block) == k.bs {
		k.encodeBlock()
	}
}

// pushRecon records a reconstructed value: it feeds the two-value prediction
// history and the run-based segment count.
func (k *szStream) pushRecon(r float64) {
	k.countRecon(r)
	if k.nhist < 2 {
		k.hist[k.nhist] = r
		k.nhist++
	} else {
		k.hist[0], k.hist[1] = k.hist[1], r
	}
}

// prior returns the reconstruction history as a slice for the shared
// predictor helpers, which index it from the end.
func (k *szStream) prior() []float64 { return k.hist[:k.nhist] }

func (k *szStream) encodeBlock() {
	block := k.block
	defer func() { k.block = k.block[:0] }()
	k.nblocks++
	var scratch [8]byte
	if constantBlock(block) {
		k.meta.s = append(k.meta.s, szModeConstant)
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(block[0]))
		k.meta.s = append(k.meta.s, scratch[:]...)
		for range block {
			k.pushRecon(block[0])
		}
		return
	}
	mode, slope, intercept := szSelectPredictor(block, k.prior())
	precision := k.quant.BlockPrecision(block)
	k.meta.s = append(k.meta.s, byte(mode))
	binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(precision))
	k.meta.s = append(k.meta.s, scratch[:4]...)
	if mode == szModeRegression {
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(slope))
		k.meta.s = append(k.meta.s, scratch[:4]...)
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(intercept))
		k.meta.s = append(k.meta.s, scratch[:4]...)
	}
	for i, v := range block {
		pred := szPredict(mode, float64(slope), float64(intercept), i, k.prior())
		code, recon, ok := k.quant.Quantise(v, pred)
		if !ok {
			k.codes.s = append(k.codes.s, 0)
			k.exceptions.s = append(k.exceptions.s, v)
			k.pushRecon(v)
			continue
		}
		k.codes.s = append(k.codes.s, uint16(code+szQuantRadius+1))
		k.pushRecon(recon)
	}
}

// Finish encodes the final partial block and assembles the payload body.
func (k *szStream) Finish() ([]byte, int) { return k.AppendFinish(nil) }

// AppendFinish implements FinishAppender: it encodes the final partial block
// and appends the body (block count, per-block metadata, the Huffman-coded
// quantisation codes and the exception values; kernelBase.appendBody).
func (k *szStream) AppendFinish(dst []byte) ([]byte, int) {
	if len(k.block) > 0 {
		k.encodeBlock()
	}
	return k.appendBody(dst), k.segments
}

// reset rewinds the kernel for a fresh series, keeping all scratch buffers.
func (k *szStream) reset() {
	k.resetBuffers()
	k.nhist = 0
}

// release returns the scratch buffers to their pools; the kernel must not be
// used afterwards.
func (k *szStream) release() { k.releaseBuffers() }

func constantBlock(block []float64) bool {
	for _, v := range block[1:] {
		if v != block[0] {
			return false
		}
	}
	return true
}

// szBlockPrecision returns the block's absolute precision: epsilon times the
// smallest non-zero magnitude, rounded down to float32 so the encoder and
// decoder share the exact same value and the relative bound still holds.
func szBlockPrecision(block []float64, epsilon float64) float32 {
	minAbs := math.Inf(1)
	for _, v := range block {
		if a := math.Abs(v); a > 0 && a < minAbs {
			minAbs = a
		}
	}
	if math.IsInf(minAbs, 1) {
		return 0
	}
	return roundDown32(epsilon * minAbs)
}

// roundDown32 converts to float32 rounding toward zero, so a stored
// precision never exceeds the intended bound.
func roundDown32(p float64) float32 {
	f := float32(p)
	for float64(f) > p {
		f = math.Nextafter32(f, 0)
	}
	return f
}

// szSelectPredictor picks the block predictor with the smallest total
// absolute residual, estimated on the raw values (as SZ does when sampling).
// prior is the reconstruction history before the block; only its last two
// values are read.
func szSelectPredictor(block []float64, prior []float64) (mode int, slope, intercept float32) {
	var lorenzo, lorenzo2, reg float64
	// Linear fit of the block: index -> value.
	sl, ic := fitLine(block)
	// The previous-one/previous-two values roll through the loop instead of
	// being recomputed by per-index closures; the seeds cover local index 0
	// exactly as the indexed lookups did.
	var prev, prev2 float64
	if len(prior) > 0 {
		prev = prior[len(prior)-1]
	}
	if len(prior) > 1 {
		prev2 = prior[len(prior)-2]
	}
	for k, v := range block {
		lorenzo += math.Abs(v - prev)
		lorenzo2 += math.Abs(v - (2*prev - prev2))
		reg += math.Abs(v - (sl*float64(k) + ic))
		prev2, prev = prev, v
	}
	switch {
	case reg <= lorenzo && reg <= lorenzo2:
		return szModeRegression, float32(sl), float32(ic)
	case lorenzo2 < lorenzo:
		return szModeLorenzo2, 0, 0
	default:
		return szModeLorenzo, 0, 0
	}
}

// fitLine returns the least-squares slope and intercept of values against
// their indices.
func fitLine(v []float64) (slope, intercept float64) {
	n := float64(len(v))
	if len(v) < 2 {
		if len(v) == 1 {
			return 0, v[0]
		}
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range v {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// szPredict returns the prediction for local index k given the reconstructed
// history before this point (only the last two values are read, so callers
// may pass a two-value window).
func szPredict(mode int, slope, intercept float64, k int, decomp []float64) float64 {
	switch mode {
	case szModeRegression:
		return slope*float64(k) + intercept
	case szModeLorenzo2:
		if len(decomp) >= 2 {
			return 2*decomp[len(decomp)-1] - decomp[len(decomp)-2]
		}
		fallthrough
	default: // szModeLorenzo
		if len(decomp) >= 1 {
			return decomp[len(decomp)-1]
		}
		return 0
	}
}

// szQuantize maps the residual v−pred to a linear-scale code. It reports
// ok=false when the point must be stored verbatim: zero values (a relative
// bound requires them exact), zero precision, out-of-range codes, or a
// reconstruction that would violate the relative bound.
func szQuantize(v, pred, p, epsilon float64, absolute bool) (code int, recon float64, ok bool) {
	if p <= 0 || (v == 0 && !absolute) {
		return 0, 0, false
	}
	c := math.Round((v - pred) / (2 * p))
	if math.Abs(c) > szQuantRadius || math.IsNaN(c) {
		return 0, 0, false
	}
	code = int(c)
	recon = pred + float64(code)*2*p
	bound := epsilon * math.Abs(v)
	if absolute {
		bound = epsilon
	}
	if math.Abs(recon-v) > bound {
		return 0, 0, false
	}
	return code, recon, true
}

// szBlockMeta is one parsed block header of an SZ payload body.
type szBlockMeta struct {
	mode             int
	precision        float64
	slope, intercept float64
	constant         float64
	size             int
}

// szParseBody splits an SZ payload body into its parsed block metadata,
// quantisation codes, and exception values — everything except the value
// replay (szValues).
func szParseBody(body []byte, count int) (blocks []szBlockMeta, codes []uint16, exceptions []float64, err error) {
	bs, nblocks, pos, err := parseBlockHeader(body)
	if err != nil {
		return nil, nil, nil, err
	}
	blocks = make([]szBlockMeta, 0, allocHint(nblocks))
	remaining := count
	ncodes := 0
	for b := 0; b < nblocks; b++ {
		size := bs
		if size > remaining {
			size = remaining
		}
		remaining -= size
		if pos >= len(body) {
			return nil, nil, nil, io.ErrUnexpectedEOF
		}
		m := szBlockMeta{mode: int(body[pos]), size: size}
		pos++
		switch m.mode {
		case szModeConstant:
			if pos+8 > len(body) {
				return nil, nil, nil, io.ErrUnexpectedEOF
			}
			m.constant = math.Float64frombits(binary.LittleEndian.Uint64(body[pos : pos+8]))
			pos += 8
		case szModeLorenzo, szModeLorenzo2, szModeRegression:
			if pos+4 > len(body) {
				return nil, nil, nil, io.ErrUnexpectedEOF
			}
			m.precision = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[pos : pos+4])))
			pos += 4
			if m.mode == szModeRegression {
				if pos+8 > len(body) {
					return nil, nil, nil, io.ErrUnexpectedEOF
				}
				m.slope = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[pos : pos+4])))
				m.intercept = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[pos+4 : pos+8])))
				pos += 8
			}
			ncodes += size
		default:
			return nil, nil, nil, fmt.Errorf("compress: unknown SZ block mode %d", m.mode)
		}
		blocks = append(blocks, m)
	}
	if remaining != 0 {
		return nil, nil, nil, errors.New("compress: SZ block sizes do not cover the series")
	}
	if codes, pos, err = (HuffmanCoder{}).DecodeCodes(body, pos); err != nil {
		return nil, nil, nil, err
	}
	if len(codes) != ncodes {
		return nil, nil, nil, fmt.Errorf("compress: SZ expected %d codes, got %d", ncodes, len(codes))
	}
	if exceptions, _, err = parseExceptions(body, pos); err != nil {
		return nil, nil, nil, err
	}
	return blocks, codes, exceptions, nil
}

// szValues replays SZ blocks incrementally: the carried state is the block
// cursor plus the two-value reconstruction history the predictors read.
type szValues struct {
	blocks     []szBlockMeta
	codes      []uint16
	exceptions []float64
	total      int
	remaining  int

	bi, k  int // current block / index within it
	ci, ei int // cursors into codes and exceptions
	hist   [2]float64
	nhist  int
}

func szDecodeStream(body []byte, count int) (ValueStream, error) {
	blocks, codes, exceptions, err := szParseBody(body, count)
	if err != nil {
		return nil, err
	}
	return &szValues{blocks: blocks, codes: codes, exceptions: exceptions, total: count, remaining: count}, nil
}

// rewind restarts the replay from the first value (see valueRewinder).
func (p *szValues) rewind() {
	p.remaining = p.total
	p.bi, p.k, p.ci, p.ei = 0, 0, 0, 0
	p.nhist = 0
}

func (p *szValues) push(r float64) float64 {
	if p.nhist < 2 {
		p.hist[p.nhist] = r
		p.nhist++
	} else {
		p.hist[0], p.hist[1] = p.hist[1], r
	}
	return r
}

func (p *szValues) Next(dst []float64) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && p.remaining > 0 {
		if p.bi >= len(p.blocks) {
			// szParseBody guarantees block sizes cover count, so this is
			// unreachable on well-formed metadata.
			return n, errors.New("compress: SZ blocks exhausted")
		}
		m := p.blocks[p.bi]
		if p.k >= m.size {
			p.bi++
			p.k = 0
			continue
		}
		var v float64
		if m.mode == szModeConstant {
			v = m.constant
		} else {
			stored := p.codes[p.ci]
			p.ci++
			if stored == 0 {
				if p.ei >= len(p.exceptions) {
					return n, errors.New("compress: SZ exception stream exhausted")
				}
				v = p.exceptions[p.ei]
				p.ei++
			} else {
				code := int(stored) - szQuantRadius - 1
				pred := szPredict(m.mode, m.slope, m.intercept, p.k, p.hist[:p.nhist])
				v = pred + float64(code)*2*m.precision
			}
		}
		dst[n] = p.push(v)
		n++
		p.k++
		p.remaining--
	}
	if p.remaining == 0 && p.ei != len(p.exceptions) {
		return n, errors.New("compress: SZ trailing exceptions")
	}
	return n, nil
}
