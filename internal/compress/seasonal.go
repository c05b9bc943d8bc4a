package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"lossyts/internal/timeseries"
)

// SeasonalPMC is the compressor the paper's §5 calls for: a lossy method
// designed to preserve the characteristics that matter for forecasting
// accuracy. Its analysis (Table 4, Figure 5) shows seasonal strength and
// seasonal autocorrelation survive compression best when the periodic
// structure is kept intact, so SeasonalPMC stores the seasonal profile of
// the series exactly (one float32 per phase) and applies PMC-Mean to the
// residuals only. The seasonal component therefore survives *any* error
// bound, while the residual — which carries most of the entropy but little
// of the forecastable structure — absorbs the loss.
//
// The pointwise relative bound on the original values still holds:
// |v − (profile + residualMean)| ≤ ε·|v| is enforced per point during the
// residual window intersection.
type SeasonalPMC struct {
	// Period is the seasonal period in steps (required, ≥ 2).
	Period int
}

// MethodSeasonalPMC identifies the seasonal-profile compressor.
const MethodSeasonalPMC Method = "S-PMC"

// Method returns MethodSeasonalPMC.
func (SeasonalPMC) Method() Method { return MethodSeasonalPMC }

func init() {
	Register(Registration{
		Method: MethodSeasonalPMC,
		Code:   5,
		New: func() (Compressor, error) {
			return nil, fmt.Errorf("compress: SeasonalPMC needs a period; construct compress.SeasonalPMC{Period: p} directly")
		},
		// NewStream stays nil: the phase-mean profile needs a whole-series
		// pass, so there is no bounded-memory encoder. Streaming callers wrap
		// the batch compressor with NewBufferedStreamEncoder instead.
		DecodeStream: seasonalPMCDecodeStream,
	})
}

// Compress encodes s as a stored seasonal profile plus PMC segments over
// the residuals, under the pointwise relative bound epsilon.
func (sp SeasonalPMC) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	if s.Len() == 0 {
		return nil, errors.New("compress: empty series")
	}
	if epsilon < 0 {
		return nil, errNegativeBound
	}
	m := sp.Period
	if m < 2 {
		return nil, errors.New("compress: SeasonalPMC needs a period of at least 2")
	}
	if m > math.MaxUint16 {
		return nil, fmt.Errorf("compress: period %d too large", m)
	}
	if s.Len() < 2*m {
		return nil, fmt.Errorf("compress: series of %d points shorter than two periods", s.Len())
	}
	// Phase-mean profile, stored as float32 (the decoder's exact values).
	sums := make([]float64, m)
	counts := make([]float64, m)
	for i, v := range s.Values {
		sums[i%m] += v
		counts[i%m]++
	}
	profile := make([]float32, m)
	for p := range profile {
		profile[p] = float32(sums[p] / counts[p])
	}

	var body bytes.Buffer
	if err := EncodeHeader(&body, MethodSeasonalPMC, s); err != nil {
		return nil, err
	}
	var scratch [10]byte
	binary.LittleEndian.PutUint16(scratch[:2], uint16(m))
	body.Write(scratch[:2])
	for _, p := range profile {
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(p))
		body.Write(scratch[:4])
	}

	segments := 0
	emit := func(n int, mean float64) {
		binary.LittleEndian.PutUint16(scratch[:2], uint16(n))
		binary.LittleEndian.PutUint64(scratch[2:], math.Float64bits(mean))
		body.Write(scratch[:])
		segments++
	}
	var (
		count int
		sum   float64
		lower = math.Inf(-1)
		upper = math.Inf(1)
	)
	for i, v := range s.Values {
		tol := epsilon * math.Abs(v)
		resid := v - float64(profile[i%m])
		newLower := math.Max(lower, resid-tol)
		newUpper := math.Min(upper, resid+tol)
		newSum := sum + resid
		newMean := newSum / float64(count+1)
		if count < maxSegmentLen && newLower <= newMean && newMean <= newUpper {
			count, sum, lower, upper = count+1, newSum, newLower, newUpper
			continue
		}
		emit(count, quantizeToInterval(sum/float64(count), lower, upper))
		count, sum = 1, resid
		lower, upper = resid-tol, resid+tol
	}
	emit(count, quantizeToInterval(sum/float64(count), lower, upper))
	return Finish(MethodSeasonalPMC, epsilon, s, body.Bytes(), segments)
}

// seasonalProfile parses the stored phase profile, returning it together
// with the offset of the residual segments that follow.
func seasonalProfile(body []byte) (profile []float64, pos int, err error) {
	if len(body) < 2 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	m := int(binary.LittleEndian.Uint16(body[:2]))
	pos = 2
	if m < 2 || pos+4*m > len(body) {
		return nil, 0, errors.New("compress: corrupt SeasonalPMC profile")
	}
	profile = make([]float64, m)
	for p := range profile {
		profile[p] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[pos : pos+4])))
		pos += 4
	}
	return profile, pos, nil
}

// seasonalValues replays SeasonalPMC incrementally: the carried state is the
// phase profile (O(period)), the open residual segment, and the absolute
// position that selects the phase.
type seasonalValues struct {
	body      []byte
	pos       int
	remaining int
	profile   []float64
	absIdx    int // values produced so far, mod period = phase
	segLeft   int
	mean      float64
}

func seasonalPMCDecodeStream(body []byte, count int) (ValueStream, error) {
	profile, pos, err := seasonalProfile(body)
	if err != nil {
		return nil, err
	}
	return &seasonalValues{body: body, pos: pos, remaining: count, profile: profile}, nil
}

func (p *seasonalValues) Next(dst []float64) (int, error) {
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
				return n, errors.New("compress: corrupt SeasonalPMC segment length")
			}
			p.segLeft = seg
		}
		dst[n] = p.profile[p.absIdx%len(p.profile)] + p.mean
		n++
		p.absIdx++
		p.segLeft--
		p.remaining--
	}
	return n, nil
}
