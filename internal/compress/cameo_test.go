package compress

import (
	"math"
	"math/rand"
	"testing"

	"lossyts/internal/features"
	"lossyts/internal/timeseries"
)

// cameoTestSeries is a noisy seasonal signal with strong autocorrelation —
// the workload CAMEO's adaptation is built for.
func cameoTestSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	for i := range values {
		values[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/24) + 2*rng.NormFloat64()
	}
	return timeseries.New("cameo-test", 0, 60, values)
}

func maxACFDeviation(orig, recon []float64, maxLag int) float64 {
	ao := features.ACF(orig, maxLag)
	ar := features.ACF(recon, maxLag)
	dev := 0.0
	for i := range ao {
		if d := math.Abs(ao[i] - ar[i]); d > dev {
			dev = d
		}
	}
	return dev
}

// CAMEO's whole reason to exist: at the same nominal bound its
// reconstruction must track the original's autocorrelation at least as
// well as plain Swing, because the corridor tightens whenever the ACF
// deviation approaches the bound.
func TestCAMEOPreservesACFBetterThanSwing(t *testing.T) {
	s := cameoTestSeries(4096, 11)
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		cc, err := CAMEO{}.Compress(s, eps)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Swing{}.Compress(s, eps)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := cc.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := sc.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		devC := maxACFDeviation(s.Values, cv.Values, cameoMaxLag)
		devS := maxACFDeviation(s.Values, sv.Values, cameoMaxLag)
		if devC > devS*1.01+1e-12 {
			t.Errorf("eps=%g: CAMEO ACF deviation %.6f worse than Swing %.6f", eps, devC, devS)
		}
		// The per-point relative bound must hold even while adapting.
		if mre, _ := s.MaxRelError(cv); mre > eps*(1+1e-9) {
			t.Errorf("eps=%g: CAMEO max relative error %.6g exceeds the bound", eps, mre)
		}
	}
}

// The exported contract assembly must be enough to build a working codec:
// a trivial last-value predictor composed with the shared quantiser (and
// the Huffman stage every predictive kernel uses) has to round-trip within
// the bound without any private plumbing. This is the "how to add a codec"
// walkthrough as a test.
type lastValuePredictor struct{ last float64 }

func (p *lastValuePredictor) Predict() float64     { return p.last }
func (p *lastValuePredictor) Update(recon float64) { p.last = recon }
func (p *lastValuePredictor) Reset()               { p.last = 0 }

func TestPredictiveContractComposesExternalCodec(t *testing.T) {
	s := cameoTestSeries(2000, 5)
	const eps = 0.05
	k := NewPredictiveKernel(128, &lastValuePredictor{}, NewUniformQuantiser(eps, false))
	for _, v := range s.Values {
		k.Push(v)
	}
	body, segments := k.Finish()
	if segments <= 0 {
		t.Fatal("expected a positive segment count")
	}
	vs, err := DecodePredictiveStream(&lastValuePredictor{}, body, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	recon := make([]float64, 0, s.Len())
	var buf [256]float64
	for len(recon) < s.Len() {
		n, err := vs.Next(buf[:])
		recon = append(recon, buf[:n]...)
		if err != nil {
			t.Fatal(err)
		}
	}
	mre, err := s.MaxRelError(timeseries.New(s.Name, s.Start, s.Interval, recon))
	if err != nil {
		t.Fatal(err)
	}
	if mre > eps*(1+1e-9) {
		t.Fatalf("composed codec max relative error %.6g exceeds the bound", mre)
	}
}
