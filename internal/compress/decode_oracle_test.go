package compress

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// The batch decoders the codecs carried beside their value streams, kept as
// test oracles: FuzzDecodeHeader holds each value stream to its batch form
// bit for bit (PMC; Swing and CAMEO through the shared line wire; SZ; S-PMC).
// Gorilla's and LFZip's batch decoders were loops over their own value
// streams, so they have no independent oracle.

// batchOracles maps each method with an independent batch decoder to it.
var batchOracles = map[Method]func(body []byte, count int) ([]float64, error){
	MethodPMC:         pmcDecode,
	MethodSwing:       lineDecode,
	MethodCAMEO:       lineDecode,
	MethodSZ:          szDecode,
	MethodSeasonalPMC: seasonalPMCDecode,
}

func pmcDecode(body []byte, count int) ([]float64, error) {
	values := make([]float64, 0, allocHint(count))
	pos := 0
	for len(values) < count {
		if pos+10 > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint16(body[pos : pos+2]))
		mean := math.Float64frombits(binary.LittleEndian.Uint64(body[pos+2 : pos+10]))
		pos += 10
		if n == 0 || len(values)+n > count {
			return nil, errors.New("compress: corrupt PMC segment length")
		}
		for i := 0; i < n; i++ {
			values = append(values, mean)
		}
	}
	return values, nil
}

// lineDecode is the batch decoder for the line-segment wire.
func lineDecode(body []byte, count int) ([]float64, error) {
	values := make([]float64, 0, allocHint(count))
	pos := 0
	for len(values) < count {
		if pos+18 > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint16(body[pos : pos+2]))
		slope := math.Float64frombits(binary.LittleEndian.Uint64(body[pos+2 : pos+10]))
		intercept := math.Float64frombits(binary.LittleEndian.Uint64(body[pos+10 : pos+18]))
		pos += 18
		if n == 0 || len(values)+n > count {
			return nil, errors.New("compress: corrupt segment length")
		}
		for i := 0; i < n; i++ {
			values = append(values, intercept+slope*float64(i))
		}
	}
	return values, nil
}

func szDecode(body []byte, count int) ([]float64, error) {
	blocks, codes, exceptions, err := szParseBody(body, count)
	if err != nil {
		return nil, err
	}
	// Replay.
	decomp := make([]float64, 0, allocHint(count))
	ci, ei := 0, 0
	for _, m := range blocks {
		if m.mode == szModeConstant {
			for i := 0; i < m.size; i++ {
				decomp = append(decomp, m.constant)
			}
			continue
		}
		for k := 0; k < m.size; k++ {
			stored := codes[ci]
			ci++
			if stored == 0 {
				if ei >= len(exceptions) {
					return nil, errors.New("compress: SZ exception stream exhausted")
				}
				decomp = append(decomp, exceptions[ei])
				ei++
				continue
			}
			code := int(stored) - szQuantRadius - 1
			pred := szPredict(m.mode, m.slope, m.intercept, k, decomp)
			decomp = append(decomp, pred+float64(code)*2*m.precision)
		}
	}
	if ei != len(exceptions) {
		return nil, errors.New("compress: SZ trailing exceptions")
	}
	return decomp, nil
}

func seasonalPMCDecode(body []byte, count int) ([]float64, error) {
	profile, pos, err := seasonalProfile(body)
	if err != nil {
		return nil, err
	}
	m := len(profile)
	values := make([]float64, 0, allocHint(count))
	for len(values) < count {
		if pos+10 > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint16(body[pos : pos+2]))
		mean := math.Float64frombits(binary.LittleEndian.Uint64(body[pos+2 : pos+10]))
		pos += 10
		if n == 0 || len(values)+n > count {
			return nil, errors.New("compress: corrupt SeasonalPMC segment length")
		}
		for i := 0; i < n; i++ {
			values = append(values, profile[len(values)%m]+mean)
		}
	}
	return values, nil
}
