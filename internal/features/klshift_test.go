package features

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// klShiftRef is KLShift evaluated window by window: every window's density
// recomputes its own exp terms, and densities are memoised by start in a
// map. KLShift must match it bit for bit.
func klShiftRef(x []float64, w int) ShiftResult {
	n := len(x)
	if w < 2 || n < 2*w {
		return ShiftResult{}
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return ShiftResult{}
	}
	const gridN = 100
	grid := make([]float64, gridN)
	for i := range grid {
		grid[i] = lo + (hi-lo)*float64(i)/float64(gridN-1)
	}
	sd := math.Sqrt(variance(x))
	if sd == 0 {
		return ShiftResult{}
	}
	bw := 1.06 * sd * math.Pow(float64(n), -0.2)

	step := w / 8
	if step < 1 {
		step = 1
	}
	starts := make([]int, 0, n/step)
	for s := 0; s+2*w <= n; s += step {
		starts = append(starts, s)
	}
	if len(starts) == 0 {
		return ShiftResult{}
	}
	dens := func(window []float64) []float64 {
		d := make([]float64, gridN)
		inv := 1 / (bw * math.Sqrt(2*math.Pi) * float64(len(window)))
		for gi, g := range grid {
			var s float64
			for _, v := range window {
				z := (g - v) / bw
				s += math.Exp(-0.5 * z * z)
			}
			d[gi] = s*inv + 1e-12
		}
		var tot float64
		for _, v := range d {
			tot += v
		}
		for i := range d {
			d[i] /= tot
		}
		return d
	}
	res := ShiftResult{Max: -1}
	cache := map[int][]float64{}
	densityAt := func(s int) []float64 {
		if d, ok := cache[s]; ok {
			return d
		}
		d := dens(x[s : s+w])
		cache[s] = d
		return d
	}
	for _, s := range starts {
		p := densityAt(s)
		q := densityAt(s + w)
		var kl float64
		for i := range p {
			kl += p[i] * math.Log(p[i]/q[i])
		}
		if kl > res.Max {
			res.Max, res.Time = kl, s+w
		}
	}
	if res.Max < 0 {
		res.Max = 0
	}
	return res
}

func checkKLShiftMatchesRef(t *testing.T, name string, x []float64, w int) {
	t.Helper()
	got, want := KLShift(x, w), klShiftRef(x, w)
	if math.Float64bits(got.Max) != math.Float64bits(want.Max) || got.Time != want.Time {
		t.Errorf("%s (n=%d, w=%d): KLShift = {%v (%#x), %d}, reference {%v (%#x), %d}", name, len(x), w,
			got.Max, math.Float64bits(got.Max), got.Time, want.Max, math.Float64bits(want.Max), want.Time)
	}
}

// TestKLShiftMatchesRef holds the kernel-row table to the per-window
// evaluation on windows chosen to break an off-by-one: constant runs,
// steps of 1 (w < 8), partners off the step grid (w not a multiple of
// w/8), n = 2w, n not a multiple of the step, and extreme magnitudes.
func TestKLShiftMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	noise := func(n int, scale float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = scale * rng.NormFloat64()
		}
		return x
	}
	runs := func(n int) []float64 {
		x := make([]float64, n)
		v := 0.0
		for i := range x {
			if rng.Intn(17) == 0 {
				v = float64(rng.Intn(5))
			}
			x[i] = v
		}
		return x
	}
	mixed := func(n int) []float64 {
		x := noise(n, 1)
		for i := range x {
			switch rng.Intn(9) {
			case 0:
				x[i] = 1e300
			case 1:
				x[i] = -1e300
			case 2:
				x[i] = -x[i] * 1e6
			}
		}
		return x
	}
	shifted := noise(800, 1)
	for i := 400; i < len(shifted); i++ {
		shifted[i] += 8
	}
	for _, w := range []int{2, 3, 5, 7, 8, 9, 10, 13, 16, 17, 24, 48, 50, 80} {
		for _, n := range []int{2 * w, 2*w + 1, 2*w + 7, 3*w + 5, 4 * w, 2400} {
			checkKLShiftMatchesRef(t, "noise", noise(n, 1), w)
			checkKLShiftMatchesRef(t, "constant runs", runs(n), w)
			checkKLShiftMatchesRef(t, "mixed signs and ±1e300", mixed(n), w)
		}
	}
	checkKLShiftMatchesRef(t, "level shift", shifted, 80)
	checkKLShiftMatchesRef(t, "constant", make([]float64, 100), 10)
	checkKLShiftMatchesRef(t, "two values", []float64{0, 0, 0, 0, 1, 1, 1, 1}, 2)
	zeros := make([]float64, 64)
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(i%3-1))
	}
	zeros[40] = 1
	checkKLShiftMatchesRef(t, "signed zeros", zeros, 8)
	withNaN := noise(200, 1)
	withNaN[57] = math.NaN()
	checkKLShiftMatchesRef(t, "NaN", withNaN, 24)
	withInf := noise(200, 1)
	withInf[3] = math.Inf(1)
	checkKLShiftMatchesRef(t, "+Inf", withInf, 24)
}

func FuzzKLShift(f *testing.F) {
	f.Add(int64(1), uint16(96), uint8(24), 1.0, uint8(0))
	f.Add(int64(2), uint16(30), uint8(5), 1e300, uint8(3))
	f.Add(int64(3), uint16(200), uint8(13), 1e-3, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, w uint8, scale float64, levels uint8) {
		if n > 3000 {
			n %= 3000
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			if levels > 0 {
				x[i] = scale * float64(rng.Intn(int(levels)+1))
			} else {
				x[i] = scale * rng.NormFloat64()
			}
		}
		got, want := KLShift(x, int(w)), klShiftRef(x, int(w))
		if math.Float64bits(got.Max) != math.Float64bits(want.Max) || got.Time != want.Time {
			t.Fatalf("n=%d w=%d: KLShift = {%v, %d}, reference {%v, %d}", n, w, got.Max, got.Time, want.Max, want.Time)
		}
	})
}

// TestKLShiftConcurrent calls KLShift from several goroutines at once on
// series of different lengths, so pooled scratch is shared and regrown
// across callers; every result must equal the serial one.
func TestKLShiftConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := make([][]float64, 8)
	want := make([]ShiftResult, len(series))
	for i := range series {
		series[i] = make([]float64, 96+150*i)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64() + float64(j/100)
		}
		want[i] = KLShift(series[i], 24+i)
	}
	var wg sync.WaitGroup
	for i := range series {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range 10 {
				if got := KLShift(series[i], 24+i); got != want[i] {
					t.Errorf("series %d: concurrent KLShift = %+v, serial %+v", i, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestKLShiftAllocs pins KLShift's working memory to its pool: a warm call
// at the analysis shape (w = 48, n = 2400) allocates a fixed handful of
// objects, where a fresh density table costs one per window.
func TestKLShiftAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	x := make([]float64, 2400)
	for i := range x {
		x[i] = math.Sin(float64(i)/7) + 0.3*rng.NormFloat64()
	}
	KLShift(x, 48) // warm the pool
	if allocs := testing.AllocsPerRun(20, func() { KLShift(x, 48) }); allocs > 2 {
		t.Fatalf("KLShift: %v allocs/op, want at most 2", allocs)
	}
}
