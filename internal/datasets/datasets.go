// Package datasets provides seeded synthetic generators for the paper's
// six evaluation datasets (§3.1, Table 1): ETTm1, ETTm2, Solar, Weather,
// ElecDem, and Wind. The real datasets cannot be downloaded in an offline
// module, so each generator reproduces the published descriptive statistics
// (length, sampling interval, mean, min, max, quartiles, rIQD) and the
// qualitative structure that drives the paper's findings: daily/weekly
// seasonality, noise level, Solar's zero-inflated nights, Weather's tiny
// 5% rIQD, and Wind's high-variance regime switching (DESIGN.md
// substitution table).
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"lossyts/internal/timeseries"
)

// Dataset bundles a generated frame with the metadata the evaluation needs.
type Dataset struct {
	Name string
	// Frame holds the generated columns; the forecasting target is
	// Frame.TargetSeries().
	Frame *timeseries.Frame
	// SeasonalPeriod is the dominant cycle length in steps (e.g. 96 for
	// 15-minute data with daily seasonality).
	SeasonalPeriod int
	// Interval is the sampling interval in seconds.
	Interval int64
}

// Target returns the forecasting target column.
func (d *Dataset) Target() *timeseries.Series { return d.Frame.TargetSeries() }

// Names lists the datasets in the paper's order.
var Names = []string{"ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind"}

// Spec captures the Table 1 statistics a generator aims for.
type Spec struct {
	// Length is the full (scale 1.0) number of data points; Interval the
	// sampling interval in seconds; Period the dominant seasonal period in
	// steps.
	Length   int
	Interval int64
	Period   int
	// Mean, Min, Max, Q1, and Q3 are the descriptive statistics the
	// generator targets.
	Mean     float64
	Min, Max float64
	Q1, Q3   float64
}

// Registration declares a dataset generator to the package registry. The
// paper's six datasets self-register below; external packages register
// the same way and their datasets immediately work everywhere a dataset
// name is accepted — Load, the evaluation grid, and the lossyts API —
// without touching any dispatch site.
type Registration struct {
	// Name is the registry key, e.g. "ETTm1".
	Name string
	// Spec holds the statistics the generator targets; Spec.Length scaled
	// by Load's scale argument decides how many points Gen produces.
	Spec Spec
	// Gen produces the frame columns; the first column is the forecasting
	// target. rng is seeded deterministically from (name, seed).
	Gen func(rng *rand.Rand, n int, sp Spec) []*timeseries.Series
}

// UnknownDatasetError is returned when a dataset name has no registration.
type UnknownDatasetError struct {
	Name string
}

func (e *UnknownDatasetError) Error() string {
	return fmt.Sprintf("datasets: unknown dataset %q (registered: %v)", e.Name, Registered())
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Registration{}
)

// Register adds a dataset generator to the registry. It panics on a
// duplicate name, a nil generator, or a degenerate spec — registration
// happens in init functions, where a loud failure at process start beats a
// broken grid later.
func Register(r Registration) {
	if r.Name == "" {
		panic("datasets: Register with empty dataset name")
	}
	if r.Gen == nil {
		panic(fmt.Sprintf("datasets: Register(%s) needs a generator", r.Name))
	}
	if r.Spec.Length <= 0 || r.Spec.Period <= 0 || r.Spec.Interval <= 0 {
		panic(fmt.Sprintf("datasets: Register(%s) with degenerate spec %+v", r.Name, r.Spec))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("datasets: dataset %q registered twice", r.Name))
	}
	registry[r.Name] = r
}

// Registered lists every registered dataset name in sorted order. The
// paper's evaluation order is the fixed Names slice.
func Registered() []string {
	registryMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	registryMu.RUnlock()
	sort.Strings(out)
	return out
}

func init() {
	for _, r := range []Registration{
		{Name: "ETTm1",
			Spec: Spec{Length: 69680, Interval: 900, Period: 96, Mean: 13.32, Min: -4, Max: 46, Q1: 7, Q3: 18},
			Gen: func(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
				return genETT(rng, n, sp, 6, 0.12, 0.99)
			}},
		{Name: "ETTm2",
			Spec: Spec{Length: 69680, Interval: 900, Period: 96, Mean: 26.60, Min: -3, Max: 58, Q1: 16, Q3: 36},
			Gen: func(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
				return genETT(rng, n, sp, 12, 0.08, 0.995)
			}},
		{Name: "Solar",
			Spec: Spec{Length: 52560, Interval: 600, Period: 144, Mean: 6.35, Min: 0, Max: 34, Q1: 0, Q3: 12},
			Gen:  genSolar},
		{Name: "Weather",
			Spec: Spec{Length: 52704, Interval: 600, Period: 144, Mean: 427.66, Min: 305, Max: 524, Q1: 415, Q3: 437},
			Gen:  genWeather},
		{Name: "ElecDem",
			Spec: Spec{Length: 230736, Interval: 1800, Period: 48, Mean: 6740, Min: 3498, Max: 12865, Q1: 5751, Q3: 7658},
			Gen:  genElecDem},
		{Name: "Wind",
			Spec: Spec{Length: 432000, Interval: 2, Period: 720, Mean: 363.69, Min: -68, Max: 2030, Q1: 108, Q3: 550},
			Gen:  genWind},
	} {
		Register(r)
	}
}

// baseStart is an arbitrary fixed epoch (2020-01-01 00:00 UTC) so generated
// timestamps fit the 32-bit header field the paper's codec uses.
const baseStart = 1577836800

// Load generates the named dataset via its registered generator. scale in
// (0, 1] shrinks the length for fast tests and benches (1.0 = the paper's
// full length); seed makes the generation reproducible. Unknown names
// yield an *UnknownDatasetError.
func Load(name string, scale float64, seed int64) (*Dataset, error) {
	registryMu.RLock()
	r, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, &UnknownDatasetError{Name: name}
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("datasets: scale %v outside (0, 1]", scale)
	}
	sp := r.Spec
	n := int(float64(sp.Length) * scale)
	if min := 6 * sp.Period; n < min {
		n = min // keep enough cycles for decomposition-based features
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(len(name))))
	cols := r.Gen(rng, n, sp)
	frame, err := timeseries.NewFrame(name, baseStart, sp.Interval, 0, cols...)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Frame: frame, SeasonalPeriod: sp.Period, Interval: sp.Interval}, nil
}

// MustLoad is Load that panics on error, for tests and examples.
func MustLoad(name string, scale float64, seed int64) *Dataset {
	d, err := Load(name, scale, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// SpecOf returns the registered spec for the named dataset — the paper's
// Table 1 statistics for the built-ins — and whether the name is known.
func SpecOf(name string) (Spec, bool) {
	registryMu.RLock()
	r, ok := registry[name]
	registryMu.RUnlock()
	return r.Spec, ok
}

// genETT produces an electrical-transformer-like oil temperature: daily and
// weekly seasonality, a slowly wandering level, and AR(1) noise. amp sets
// the daily amplitude, sigma the innovation scale and ar the AR coefficient
// (ETTm2 is smoother than ETTm1).
func genETT(rng *rand.Rand, n int, sp Spec, amp, sigma, ar float64) []*timeseries.Series {
	day := float64(sp.Period)
	week := day * 7
	target := make([]float64, n)
	load := make([]float64, n)
	noise := 0.0
	level := 0.0
	for i := 0; i < n; i++ {
		noise = ar*noise + sigma*rng.NormFloat64()
		level += 0.004 * rng.NormFloat64()
		level *= 0.9995 // mean-reverting wander
		daily := amp * math.Sin(2*math.Pi*float64(i)/day)
		weekly := 0.3 * amp * math.Sin(2*math.Pi*float64(i)/week)
		target[i] = daily + weekly + noise + level*40
		load[i] = 0.8*daily + 2*rng.NormFloat64()
	}
	affineMatch(target, sp)
	quantize(rng, target, 128, 2) // ADC precision: 1/128 units, ~2 LSB noise
	quantize(rng, load, 128, 2)
	return []*timeseries.Series{
		timeseries.New("OT", 0, 0, target),
		timeseries.New("LOAD", 0, 0, load),
	}
}

// genSolar produces a zero-inflated PV power output: a daily bell curve
// gated to daytime, modulated by slowly varying cloud cover.
func genSolar(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
	day := float64(sp.Period)
	target := make([]float64, n)
	second := make([]float64, n)
	cloud := 0.7
	flicker := 0.0
	for i := 0; i < n; i++ {
		phase := math.Mod(float64(i), day) / day // 0..1 across a day
		cloud += 0.02 * rng.NormFloat64()
		if cloud < 0.05 {
			cloud = 0.05
		}
		if cloud > 1 {
			cloud = 1
		}
		flicker = 0.97*flicker + 0.01*rng.NormFloat64()
		// Daylight between 0.25 and 0.75 of the day.
		var bell float64
		if phase > 0.25 && phase < 0.75 {
			bell = math.Sin(math.Pi * (phase - 0.25) / 0.5)
			bell *= bell
		}
		v := 30 * bell * cloud * (1 + flicker)
		if v < 0.2 {
			v = 0 // inverter cut-in: nights and deep clouds are exactly zero
		}
		target[i] = v
		second[i] = 30 * bell * math.Min(1, cloud+0.1) * (1 + flicker)
	}
	scaleMatch(target, sp)
	quantizeNonzero(rng, target, 128, 2)
	quantizeNonzero(rng, second, 128, 2)
	return []*timeseries.Series{
		timeseries.New("PV0", 0, 0, target),
		timeseries.New("PV1", 0, 0, second),
	}
}

// genWeather produces a CO2-like concentration: large stable level, small
// daily oscillation, slow drift — the 5% rIQD regime where lossy
// compression achieves extreme ratios.
func genWeather(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
	day := float64(sp.Period)
	target := make([]float64, n)
	temp := make([]float64, n)
	drift := 0.0
	noise := 0.0
	for i := 0; i < n; i++ {
		drift += 0.02 * rng.NormFloat64()
		drift *= 0.9998
		noise = 0.97*noise + 0.7*rng.NormFloat64()
		target[i] = 8*math.Sin(2*math.Pi*float64(i)/day) + drift*30 + noise
		temp[i] = 10 + 6*math.Sin(2*math.Pi*float64(i)/day-1) + rng.NormFloat64()
	}
	affineMatch(target, sp)
	quantize(rng, target, 64, 2)
	quantize(rng, temp, 64, 2)
	return []*timeseries.Series{
		timeseries.New("CO2", 0, 0, target),
		timeseries.New("T", 0, 0, temp),
	}
}

// genElecDem produces half-hourly electricity demand: a double-peaked daily
// profile, weekday/weekend contrast, an annual cycle, and noise.
func genElecDem(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
	day := float64(sp.Period)
	year := day * 365
	target := make([]float64, n)
	noise := 0.0
	for i := 0; i < n; i++ {
		phase := math.Mod(float64(i), day) / day
		// Morning and evening peaks.
		daily := 0.9*gauss(phase, 0.35, 0.09) + 1.1*gauss(phase, 0.75, 0.08)
		dow := int(float64(i)/day) % 7
		weekly := 1.0
		if dow >= 5 {
			weekly = 0.85 // weekends
		}
		annual := 1 + 0.12*math.Sin(2*math.Pi*float64(i)/year)
		noise = 0.97*noise + 0.01*rng.NormFloat64()
		target[i] = (0.55 + daily) * weekly * annual * (1 + noise)
	}
	affineMatch(target, sp)
	quantize(rng, target, 1, 3) // demand metered in whole units
	return []*timeseries.Series{timeseries.New("DEMAND", 0, 0, target)}
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// genWind produces 2-second wind turbine active power: an
// Ornstein-Uhlenbeck wind speed pushed through a cubic power curve with
// rated saturation, plus idle consumption making small negative values.
func genWind(rng *rand.Rand, n int, sp Spec) []*timeseries.Series {
	target := make([]float64, n)
	rotor := make([]float64, n)
	windSpeed := make([]float64, n)
	ws := 7.0
	gust := 0.0
	idle := -10.0
	rated := 2030.0
	for i := 0; i < n; i++ {
		// Slow mean-reverting wind with a mild periodic component; at a
		// 2-second sampling interval consecutive speeds are very close.
		ws += 0.002*(7.5-ws) + 0.01*rng.NormFloat64()
		gust = 0.995*gust + 0.05*rng.NormFloat64()
		s := ws + gust + 1.2*math.Sin(2*math.Pi*float64(i)/float64(sp.Period))
		if s < 0 {
			s = 0
		}
		windSpeed[i] = s
		var p float64
		switch {
		case s < 3: // below cut-in: idle consumption
			idle += 0.9*(-10-idle) + 0.5*rng.NormFloat64()
			p = idle
		case s < 12:
			p = rated * math.Pow((s-3)/9, 3)
		default:
			rated += 0.5 * (2030*0.99 - rated)
			p = rated
		}
		target[i] = p
		rotor[i] = math.Min(16, s*1.3) + 0.2*rng.NormFloat64()
	}
	affineMatch(target, sp)
	quantize(rng, target, 8, 2) // power metered in 1/8 kW ADC steps
	quantize(rng, rotor, 128, 2)
	quantize(rng, windSpeed, 128, 2)
	return []*timeseries.Series{
		timeseries.New("POWER", 0, 0, target),
		timeseries.New("ROTOR", 0, 0, rotor),
		timeseries.New("WS", 0, 0, windSpeed),
	}
}

// affineMatch rescales values so the mean and interquartile range match the
// spec, then clips to [min, max].
func affineMatch(v []float64, sp Spec) {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	q1 := quantile(sorted, 0.25)
	q3 := quantile(sorted, 0.75)
	var m float64
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	iqr := q3 - q1
	if iqr == 0 {
		iqr = 1
	}
	s := (sp.Q3 - sp.Q1) / iqr
	for i, x := range v {
		y := (x-m)*s + sp.Mean
		if y < sp.Min {
			y = sp.Min
		}
		if y > sp.Max {
			y = sp.Max
		}
		v[i] = y
	}
}

// scaleMatch rescales by a pure factor (keeping zeros at zero) so the upper
// quartile matches the spec, then clips. Used for the zero-inflated Solar.
func scaleMatch(v []float64, sp Spec) {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	q3 := quantile(sorted, 0.75)
	if q3 <= 0 {
		return
	}
	s := sp.Q3 / q3
	for i, x := range v {
		y := x * s
		if y < sp.Min {
			y = sp.Min
		}
		if y > sp.Max {
			y = sp.Max
		}
		v[i] = y
	}
}

// quantize rounds values to 1/denom units (denom a power of two, emulating
// an ADC's binary step size) after adding lsb units of white measurement
// noise. The noise keeps the low digits realistic — without it gzip
// compresses the raw baseline unrealistically well — while binary steps
// keep XOR-based codecs (Gorilla) effective, as on real sensor exports.
func quantize(rng *rand.Rand, v []float64, denom, lsb float64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	for i, x := range v {
		x += lsb / denom * rng.NormFloat64()
		y := math.Round(x*denom) / denom
		if y < lo {
			y = lo
		}
		if y > hi {
			y = hi
		}
		v[i] = y
	}
}

// quantizeNonzero is quantize but leaves exact zeros untouched (Solar's
// nights report exactly zero).
func quantizeNonzero(rng *rand.Rand, v []float64, denom, lsb float64) {
	hi := v[0]
	for _, x := range v {
		if x > hi {
			hi = x
		}
	}
	for i, x := range v {
		if x == 0 {
			continue
		}
		x += lsb / denom * rng.NormFloat64()
		y := math.Round(x*denom) / denom
		if y <= 0 {
			y = 1 / denom
		}
		if y > hi {
			y = hi
		}
		v[i] = y
	}
}

func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
