package compress

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lossyts/internal/timeseries"
)

// synthSeries builds a seasonal series with noise, occasional zeros and
// negative values — the value patterns the paper's datasets exhibit.
func synthSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		base := 10 + 8*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()
		switch {
		case rng.Float64() < 0.05:
			base = 0 // zero-inflation (Solar nights)
		case rng.Float64() < 0.05:
			base = -base / 2 // negative excursions (ETTm1, Wind)
		}
		v[i] = base
	}
	return timeseries.New("synth", 1_600_000_000, 900, v)
}

func lossyMethods() []Method { return []Method{MethodPMC, MethodSwing, MethodSZ} }

func TestRelativeBoundHolds(t *testing.T) {
	s := synthSeries(2000, 42)
	for _, m := range lossyMethods() {
		c, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.01, 0.05, 0.1, 0.3, 0.8} {
			comp, err := c.Compress(s, eps)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", m, eps, err)
			}
			dec, err := comp.Decompress()
			if err != nil {
				t.Fatalf("%s eps=%v decompress: %v", m, eps, err)
			}
			if dec.Len() != s.Len() {
				t.Fatalf("%s eps=%v: length %d, want %d", m, eps, dec.Len(), s.Len())
			}
			if dec.Start != s.Start || dec.Interval != s.Interval {
				t.Fatalf("%s: timestamp metadata lost", m)
			}
			rel, err := s.MaxRelError(dec)
			if err != nil {
				t.Fatal(err)
			}
			if rel > eps*(1+1e-9) {
				t.Errorf("%s eps=%v: max relative error %v exceeds bound", m, eps, rel)
			}
		}
	}
}

func TestRelativeBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(500)
		v := make([]float64, n)
		for i := range v {
			// Mixture of smooth and jumpy values, including exact zeros.
			switch rng.Intn(4) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = rng.NormFloat64() * 100
			default:
				if i > 0 {
					v[i] = v[i-1] + rng.NormFloat64()
				} else {
					v[i] = rng.NormFloat64()
				}
			}
		}
		s := timeseries.New("p", 1000, 60, v)
		eps := rng.Float64() * 0.5
		for _, m := range lossyMethods() {
			c, _ := New(m)
			comp, err := c.Compress(s, eps)
			if err != nil {
				return false
			}
			dec, err := comp.Decompress()
			if err != nil {
				return false
			}
			rel, err := s.MaxRelError(dec)
			if err != nil || rel > eps*(1+1e-9)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGorillaLossless(t *testing.T) {
	s := synthSeries(3000, 7)
	g := Gorilla{}
	comp, err := g.Compress(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := comp.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(dec) {
		t.Fatal("Gorilla must be lossless")
	}
	if comp.Segments != 1 {
		t.Fatalf("Gorilla segments = %d, want 1 (whole series)", comp.Segments)
	}
}

func TestGorillaLosslessProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) {
				raw[i] = 0 // NaN breaks Equal semantics only; Gorilla itself is bit-exact
			}
		}
		s := timeseries.New("p", 0, 1, raw)
		comp, err := (Gorilla{}).Compress(s, 0)
		if err != nil {
			return false
		}
		dec, err := comp.Decompress()
		if err != nil {
			return false
		}
		return s.Equal(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGorillaRepeatedValues(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = 42.5
	}
	s := timeseries.New("const", 0, 1, v)
	comp, err := (Gorilla{}).Compress(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ~1 bit per repeated value plus header and gzip overhead.
	if comp.Size() > 300 {
		t.Errorf("constant series should compress to a few hundred bytes, got %d", comp.Size())
	}
	dec, _ := comp.Decompress()
	if !s.Equal(dec) {
		t.Fatal("round trip failed")
	}
}

func TestPMCConstantSeries(t *testing.T) {
	v := make([]float64, 500)
	for i := range v {
		v[i] = 3.25
	}
	s := timeseries.New("const", 0, 60, v)
	comp, err := (PMC{}).Compress(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Segments != 1 {
		t.Fatalf("constant series should be one PMC segment, got %d", comp.Segments)
	}
	dec, _ := comp.Decompress()
	if !s.Equal(dec) {
		t.Fatal("round trip failed")
	}
}

func TestSwingLinearSeries(t *testing.T) {
	v := make([]float64, 500)
	for i := range v {
		v[i] = 5 + 0.25*float64(i)
	}
	s := timeseries.New("line", 0, 60, v)
	comp, err := (Swing{}).Compress(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Segments != 1 {
		t.Fatalf("linear series should be one Swing segment, got %d", comp.Segments)
	}
	dec, _ := comp.Decompress()
	rel, _ := s.MaxRelError(dec)
	if rel > 0.01 {
		t.Fatalf("relative error %v on linear data", rel)
	}
}

func TestSwingBeatsPMCOnLinearData(t *testing.T) {
	// A steep line defeats constant models but is a single Swing segment.
	v := make([]float64, 2000)
	for i := range v {
		v[i] = 100 + 2*float64(i)
	}
	s := timeseries.New("line", 0, 60, v)
	pmc, _ := (PMC{}).Compress(s, 0.01)
	swing, _ := (Swing{}).Compress(s, 0.01)
	if swing.Segments >= pmc.Segments {
		t.Errorf("Swing should need fewer segments on linear data: swing=%d pmc=%d",
			swing.Segments, pmc.Segments)
	}
}

func TestSegmentCountDecreasesWithBound(t *testing.T) {
	s := synthSeries(4000, 99)
	for _, m := range lossyMethods() {
		c, _ := New(m)
		tight, err := c.Compress(s, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		loose, err := c.Compress(s, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if loose.Segments > tight.Segments {
			t.Errorf("%s: segments grew with looser bound: %d -> %d", m, tight.Segments, loose.Segments)
		}
	}
}

func TestCompressionRatioImprovesWithBound(t *testing.T) {
	s := synthSeries(4000, 5)
	for _, m := range lossyMethods() {
		c, _ := New(m)
		tight, _ := c.Compress(s, 0.01)
		loose, _ := c.Compress(s, 0.5)
		rTight, err := Ratio(s, tight)
		if err != nil {
			t.Fatal(err)
		}
		rLoose, _ := Ratio(s, loose)
		if rLoose < rTight {
			t.Errorf("%s: CR %f at 0.5 below CR %f at 0.01", m, rLoose, rTight)
		}
		if rTight <= 0 {
			t.Errorf("%s: nonpositive CR", m)
		}
	}
}

func TestLossyBeatsGorillaOnSmoothData(t *testing.T) {
	// The paper's headline: lossy CRs far exceed the lossless baseline.
	v := make([]float64, 5000)
	for i := range v {
		v[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/200)
	}
	s := timeseries.New("smooth", 0, 60, v)
	g, _ := (Gorilla{}).Compress(s, 0)
	gr, _ := Ratio(s, g)
	for _, m := range lossyMethods() {
		c, _ := New(m)
		comp, _ := c.Compress(s, 0.1)
		cr, _ := Ratio(s, comp)
		if cr < gr {
			t.Errorf("%s CR %.1f below Gorilla CR %.1f on smooth data", m, cr, gr)
		}
	}
}

func TestCompressErrors(t *testing.T) {
	empty := timeseries.New("e", 0, 1, nil)
	for _, m := range append(lossyMethods(), MethodGorilla) {
		c, _ := New(m)
		if _, err := c.Compress(empty, 0.1); err == nil {
			t.Errorf("%s: empty series should error", m)
		}
	}
	s := synthSeries(10, 1)
	for _, m := range lossyMethods() {
		c, _ := New(m)
		if _, err := c.Compress(s, -0.1); err == nil {
			t.Errorf("%s: negative bound should error", m)
		}
	}
	bad := timeseries.New("b", -5, 60, []float64{1, 2})
	if _, err := (PMC{}).Compress(bad, 0.1); err == nil {
		t.Error("negative start timestamp should not fit the header")
	}
	bigIv := timeseries.New("b", 0, 1<<20, []float64{1, 2})
	if _, err := (PMC{}).Compress(bigIv, 0.1); err == nil {
		t.Error("oversized interval should not fit the header")
	}
}

func TestNewUnknownMethod(t *testing.T) {
	if _, err := New(Method("NOPE")); err == nil {
		t.Error("unknown method should error")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	s := synthSeries(100, 3)
	comp, _ := (PMC{}).Compress(s, 0.1)
	comp.Payload = comp.Payload[:len(comp.Payload)/2]
	if _, err := comp.Decompress(); err == nil {
		t.Error("truncated payload should error")
	}
	comp2, _ := (Swing{}).Compress(s, 0.1)
	comp2.Method = MethodPMC // mismatched method marker
	if _, err := comp2.Decompress(); err == nil {
		t.Error("method mismatch should error")
	}
}

func TestZerosStoredExactly(t *testing.T) {
	// A relative bound forces zero values to be reconstructed exactly.
	v := []float64{0, 5, 0, 0, 7.5, 0, -3, 0}
	s := timeseries.New("z", 0, 600, v)
	for _, m := range lossyMethods() {
		c, _ := New(m)
		comp, err := c.Compress(s, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := comp.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for i, orig := range v {
			if orig == 0 && dec.Values[i] != 0 {
				t.Errorf("%s: zero at %d decompressed to %v", m, i, dec.Values[i])
			}
		}
	}
}

func TestSZLongSeries(t *testing.T) {
	// Multiple blocks, partial final block, constant blocks, exceptions.
	v := make([]float64, 1000)
	rng := rand.New(rand.NewSource(11))
	for i := range v {
		switch {
		case i >= 300 && i < 450:
			v[i] = 0 // constant zero block region
		case i >= 450 && i < 600:
			v[i] = 12.5 // constant non-zero region
		default:
			v[i] = 20 + math.Sin(float64(i)/10)*5 + rng.NormFloat64()*0.1
		}
	}
	s := timeseries.New("sz", 0, 1, v)
	comp, err := NewSZ().Compress(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := comp.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := s.MaxRelError(dec)
	if rel > 0.05+1e-12 {
		t.Fatalf("relative error %v", rel)
	}
}

func TestSZBlockSizeVariants(t *testing.T) {
	s := synthSeries(777, 13)
	for _, bs := range []int{16, 64, 128, 512} {
		z := SZ{BlockSize: bs}
		comp, err := z.Compress(s, 0.1)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		dec, err := comp.Decompress()
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		rel, _ := s.MaxRelError(dec)
		if rel > 0.1+1e-12 {
			t.Fatalf("bs=%d: relative error %v", bs, rel)
		}
	}
}

func TestRawGzipSizeStable(t *testing.T) {
	s := synthSeries(500, 21)
	a, err := RawGzipSize(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RawGzipSize(s)
	if a != b || a <= 0 {
		t.Fatalf("raw sizes %d, %d", a, b)
	}
}

// TestRawGzipSizeMatchesCSV checks RawGzipSize against gzipping the whole
// CSV as fmt prints it, including the values whose %g form is special.
func TestRawGzipSizeMatchesCSV(t *testing.T) {
	s := synthSeries(500, 21)
	s.Values = append(s.Values, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, math.MaxFloat64, -1e21, 1e20, 123456789, 0.1, -2.5e-7)
	var csv strings.Builder
	for i, v := range s.Values {
		fmt.Fprintf(&csv, "%s,%g\n", time.Unix(s.TimeAt(i), 0).UTC().Format("2006-01-02 15:04:05"), v)
	}
	want, err := GzipBytes([]byte(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RawGzipSize(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("RawGzipSize = %d, gzipped CSV = %d bytes", got, len(want))
	}
}

func TestLongSegmentsSplit(t *testing.T) {
	// Constant runs longer than 65535 must split without corruption.
	v := make([]float64, 70000)
	for i := range v {
		v[i] = 9
	}
	s := timeseries.New("long", 0, 2, v)
	for _, m := range []Method{MethodPMC, MethodSwing} {
		c, _ := New(m)
		comp, err := c.Compress(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := comp.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if !s.Equal(dec) {
			t.Fatalf("%s: long-run round trip failed", m)
		}
		if comp.Segments != 2 {
			t.Errorf("%s: expected 2 segments after splitting, got %d", m, comp.Segments)
		}
	}
}

func TestAbsoluteBoundMode(t *testing.T) {
	s := synthSeries(1500, 77)
	const eps = 0.5
	for _, c := range []Compressor{PMC{Absolute: true}, Swing{Absolute: true}, SZ{BlockSize: 128, Absolute: true}} {
		comp, err := c.Compress(s, eps)
		if err != nil {
			t.Fatalf("%s: %v", c.Method(), err)
		}
		dec, err := comp.Decompress()
		if err != nil {
			t.Fatalf("%s: %v", c.Method(), err)
		}
		maxAbs, _ := s.MaxAbsError(dec)
		if maxAbs > eps*(1+1e-9) {
			t.Errorf("%s absolute mode: max abs error %v exceeds %v", c.Method(), maxAbs, eps)
		}
	}
}

func TestAbsoluteModeCompressesZeroRegions(t *testing.T) {
	// Under an absolute bound, near-zero values can share segments; under a
	// relative bound they must be exact. Absolute mode should therefore use
	// fewer segments on zero-heavy data.
	v := make([]float64, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := range v {
		if i%3 == 0 {
			v[i] = 0
		} else {
			v[i] = rng.Float64() * 0.05
		}
	}
	s := timeseries.New("z", 0, 1, v)
	rel, _ := (PMC{}).Compress(s, 0.1)
	abs, _ := (PMC{Absolute: true}).Compress(s, 0.1)
	if abs.Segments >= rel.Segments {
		t.Errorf("absolute mode segments %d should be below relative mode %d on zero-heavy data",
			abs.Segments, rel.Segments)
	}
}
