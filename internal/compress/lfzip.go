package compress

import (
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

// LFZip implements LFZip-style prediction+quantisation lossy compression
// (Chandak et al., DCC 2020): an NLMS adaptive linear predictor
// (forecast.NLMS — it lives with the forecasting models because it is one)
// forecasts each value from the reconstructed history, the residual is
// uniformly quantised under the error bound, and the code stream is packed
// by the shared pooled Huffman stage. The kernel is a pure composition of
// the predictive-codec contract (predictive.go): predictiveKernel with an
// NLMS Predictor and the shared UniformQuantiser, coded by the shared
// HuffmanCoder — no codec-private wire plumbing at all, which is the point:
// this file is the "how to add a codec" walkthrough in executable form.
//
// LFZip proper bounds absolute error; this port follows the paper's
// pointwise relative bound (per-block precision from the smallest non-zero
// magnitude, as SZ's relative mode does). LFZip's native |v − v̂| ≤ ε is
// reached through NewAbsoluteStreamEncoder.
type LFZip struct{}

// MethodLFZip identifies the LFZip compressor.
const MethodLFZip Method = "LFZIP"

// lfzipBlockSize is the number of points per precision-calibration block.
const lfzipBlockSize = 128

// Method returns MethodLFZip.
func (LFZip) Method() Method { return MethodLFZip }

func init() {
	Register(Registration{
		Method:       MethodLFZip,
		Code:         7,
		Lossy:        true,
		New:          func() (Compressor, error) { return LFZip{}, nil },
		NewStream:    newLFZipStream,
		DecodeStream: lfzipDecodeStream,
	})
}

// Compress encodes s under the pointwise relative bound epsilon. The batch
// path drives the same streaming kernel as StreamEncoder, so both produce
// identical bytes by construction.
func (LFZip) Compress(s *timeseries.Series, epsilon float64) (*Compressed, error) {
	return kernelCompress(MethodLFZip, s, epsilon, false, newLFZipStream)
}

func newLFZipStream(epsilon float64, absolute bool) (StreamKernel, error) {
	return newPredictiveKernel(lfzipBlockSize, forecast.NewNLMS(), NewUniformQuantiser(epsilon, absolute)), nil
}

func lfzipDecodeStream(body []byte, count int) (ValueStream, error) {
	// Epsilon is not needed to dequantise — the stored per-block precision
	// carries the whole reconstruction contract.
	return DecodePredictiveStream(forecast.NewNLMS(), body, count)
}
