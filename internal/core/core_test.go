package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"lossyts/internal/compress"
)

// quickGrid runs (and caches) the small test grid shared by the tests.
func quickGrid(t *testing.T) *GridResult {
	t.Helper()
	g, err := RunGrid(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunGridStructure(t *testing.T) {
	g := quickGrid(t)
	opts := QuickOptions()
	if len(g.Datasets) != len(opts.datasets()) {
		t.Fatalf("datasets = %d", len(g.Datasets))
	}
	for _, name := range opts.datasets() {
		ds := g.Datasets[name]
		if ds == nil {
			t.Fatalf("missing dataset %s", name)
		}
		wantCells := len(opts.methods()) * len(opts.errorBounds())
		if len(ds.Cells) != wantCells {
			t.Fatalf("%s: %d cells, want %d", name, len(ds.Cells), wantCells)
		}
		if ds.GorillaCR <= 0 {
			t.Errorf("%s: Gorilla CR = %v", name, ds.GorillaCR)
		}
		for _, m := range opts.models() {
			b, ok := ds.Baselines[m]
			if !ok {
				t.Fatalf("%s: missing baseline for %s", name, m)
			}
			if b.NRMSE <= 0 || math.IsNaN(b.NRMSE) {
				t.Errorf("%s/%s: baseline NRMSE = %v", name, m, b.NRMSE)
			}
		}
		for _, c := range ds.Cells {
			if c.CR <= 0 {
				t.Errorf("%s %s eps=%v: CR = %v", name, c.Method, c.Epsilon, c.CR)
			}
			if len(c.Decompressed) != len(ds.RawTest) {
				t.Errorf("%s %s: decompressed length mismatch", name, c.Method)
			}
			for _, m := range opts.models() {
				if _, ok := c.TFE[m]; !ok {
					t.Errorf("%s %s eps=%v: missing TFE for %s", name, c.Method, c.Epsilon, m)
				}
			}
		}
	}
}

func TestGridMemoized(t *testing.T) {
	a := quickGrid(t)
	b := quickGrid(t)
	if a != b {
		t.Fatal("RunGrid should memoise per option set")
	}
}

func TestRelativeBoundAcrossGrid(t *testing.T) {
	// Every grid cell must honour the pointwise relative bound.
	g := quickGrid(t)
	for name, ds := range g.Datasets {
		for _, c := range ds.Cells {
			for i, raw := range ds.RawTest {
				d := math.Abs(raw - c.Decompressed[i])
				tol := c.Epsilon * math.Abs(raw) * (1 + 1e-9)
				if d > tol+1e-12 {
					t.Fatalf("%s %s eps=%v: |%v - %v| breaks bound at %d",
						name, c.Method, c.Epsilon, raw, c.Decompressed[i], i)
				}
			}
		}
	}
}

func TestTFEIncreasesWithBound(t *testing.T) {
	// TFE at the loosest bound should (generally) exceed TFE at the
	// tightest bound; require it at least on average across methods/models.
	g := quickGrid(t)
	opts := QuickOptions()
	bounds := opts.errorBounds()
	lo, hi := bounds[0], bounds[len(bounds)-1]
	var loSum, hiSum float64
	var n int
	for _, ds := range g.Datasets {
		for _, m := range opts.methods() {
			cl, ch := ds.Cell(m, lo), ds.Cell(m, hi)
			for _, model := range opts.models() {
				loSum += cl.TFE[model]
				hiSum += ch.TFE[model]
				n++
			}
		}
	}
	if n == 0 || hiSum/float64(n) <= loSum/float64(n) {
		t.Errorf("mean TFE did not grow with the bound: %.4f -> %.4f", loSum/float64(n), hiSum/float64(n))
	}
}

func TestCRIncreasesWithBound(t *testing.T) {
	g := quickGrid(t)
	opts := QuickOptions()
	bounds := opts.errorBounds()
	for name, ds := range g.Datasets {
		for _, m := range opts.methods() {
			lo := ds.Cell(m, bounds[0])
			hi := ds.Cell(m, bounds[len(bounds)-1])
			if hi.CR < lo.CR {
				t.Errorf("%s %s: CR fell from %.1f to %.1f as bound loosened", name, m, lo.CR, hi.CR)
			}
		}
	}
}

func TestAllTables(t *testing.T) {
	g := quickGrid(t)
	opts := QuickOptions()

	t1, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != len(opts.datasets()) {
		t.Errorf("table1 rows = %d", len(t1.Rows))
	}
	if !strings.Contains(t1.String(), "rIQD") {
		t.Error("table1 missing rIQD column")
	}

	t2, err := Table2(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4*len(opts.models()) {
		t.Errorf("table2 rows = %d", len(t2.Rows))
	}
	if !strings.Contains(t2.String(), "*") {
		t.Error("table2 should mark best models")
	}

	t3, err := Table3(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(opts.datasets())*len(opts.methods()) {
		t.Errorf("table3 rows = %d", len(t3.Rows))
	}

	t4, err := Table4(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) == 0 || len(t4.Rows) > 10 {
		t.Errorf("table4 rows = %d", len(t4.Rows))
	}

	t5, err := Table5(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 4*len(opts.methods()) {
		t.Errorf("table5 rows = %d", len(t5.Rows))
	}

	t6, err := Table6(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != (len(opts.datasets())+1)*len(opts.methods()) {
		t.Errorf("table6 rows = %d", len(t6.Rows))
	}

	t7, err := Table7(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 2 {
		t.Errorf("table7 rows = %d", len(t7.Rows))
	}
}

func TestAllFigures(t *testing.T) {
	g := quickGrid(t)
	opts := QuickOptions()

	f1, err := Figure1(opts, 64)
	if err != nil {
		t.Fatal(err)
	}
	// OR + 2 bounds per method, for ETTm1 and ETTm2.
	want := 2 * (1 + 2*len(opts.methods()))
	if len(f1.Rows) != want {
		t.Errorf("figure1 rows = %d, want %d", len(f1.Rows), want)
	}

	f2, err := Figure2(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(opts.datasets()) * len(opts.methods()) * len(opts.errorBounds())
	if len(f2.Rows) != cells {
		t.Errorf("figure2 rows = %d, want %d", len(f2.Rows), cells)
	}

	f3, err := Figure3(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != cells {
		t.Errorf("figure3 rows = %d", len(f3.Rows))
	}

	f4, err := Figure4(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != cells {
		t.Errorf("figure4 rows = %d", len(f4.Rows))
	}

	f5, err := Figure5(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) == 0 || len(f5.Rows) > 9 {
		t.Errorf("figure5 rows = %d", len(f5.Rows))
	}
	if !strings.Contains(f5.Title, "R^2") {
		t.Error("figure5 should report the surrogate fit")
	}

	f6, err := Figure6(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != len(opts.models()) {
		t.Errorf("figure6 rows = %d", len(f6.Rows))
	}
}

// figure7GoldenAMD64 is the SHA-256 of the NRMSE and TFE bits of
// TestFigure7Retrain's results (little-endian IEEE-754, result order), as
// computed on linux/amd64. Float arithmetic may differ on other
// architectures, so the comparison runs on amd64 only.
const figure7GoldenAMD64 = "e7cea12c6a974faebfb01b801ad1dc9f21ffa981b63344bc7b9a826c0bfbf9ad"

func TestFigure7Retrain(t *testing.T) {
	opts := QuickOptions()
	res, err := RetrainOnDecompressed(opts, []string{"ETTm1"}, []string{"Arima"}, []float64{0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := len(opts.methods()) * 2
	if len(res) != want {
		t.Fatalf("retrain results = %d, want %d", len(res), want)
	}
	for _, r := range res {
		if r.NRMSE <= 0 || math.IsNaN(r.TFE) {
			t.Errorf("bad retrain result %+v", r)
		}
	}
	if runtime.GOARCH == "amd64" {
		h := sha256.New()
		var buf [8]byte
		for _, r := range res {
			for _, v := range []float64{r.NRMSE, r.TFE} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != figure7GoldenAMD64 {
			t.Fatalf("Figure 7 retrain bits drifted from the committed golden:\n got  %s\n want %s", got, figure7GoldenAMD64)
		}
	}
}

// TestFeatureRowsTFEOrder pins the order of FeatureRows' TFE average to the
// option set's model order. The TFE values are chosen so their float sum
// depends on the order, and Go randomises every range over a map, so an
// average taken in map order gives different bits on repeated calls.
func TestFeatureRowsTFEOrder(t *testing.T) {
	values := make([]float64, 480)
	for i := range values {
		values[i] = math.Sin(2*math.Pi*float64(i)/24) + 0.01*float64(i%7)
	}
	g := &GridResult{
		Opts: Options{Datasets: []string{"Toy"}, Models: []string{"A", "B", "C", "D", "Absent", "NaN", "Inf"}},
		Datasets: map[string]*DatasetResult{"Toy": {
			Name:           "Toy",
			SeasonalPeriod: 24,
			RawTest:        values,
			Cells: []*Cell{{
				Method:       compress.MethodPMC,
				Epsilon:      0.1,
				Decompressed: values,
				TFE:          map[string]float64{"A": 1e16, "B": 1, "C": -1e16, "D": 3, "NaN": math.NaN(), "Inf": math.Inf(1)},
			}},
		}},
	}
	// In model order: ((1e16 + 1) - 1e16) + 3 = 3 over four finite values.
	const want = 0.75
	for i := 0; i < 200; i++ {
		rows, err := g.FeatureRows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || math.Float64bits(rows[0].TFE) != math.Float64bits(want) {
			t.Fatalf("call %d: row TFE %v, want %v in model order", i, rows[0].TFE, want)
		}
	}
}

func TestFeatureRowsAndAnalyses(t *testing.T) {
	g := quickGrid(t)
	rows, err := g.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	want := len(opts.datasets()) * len(opts.methods()) * len(opts.errorBounds())
	if len(rows) != want {
		t.Fatalf("feature rows = %d, want %d", len(rows), want)
	}
	corr := SpearmanToTFE(rows)
	if len(corr) < 42 {
		t.Errorf("only %d characteristics correlated", len(corr))
	}
	for i := 1; i < len(corr); i++ {
		if math.Abs(corr[i].Correlation) > math.Abs(corr[i-1].Correlation)+1e-12 {
			t.Fatal("correlations not sorted by magnitude")
		}
	}
	shap, err := SHAPAnalysis(rows)
	if err != nil {
		t.Fatal(err)
	}
	if shap.R2 < 0.5 {
		t.Errorf("surrogate R2 = %.2f, want a reasonable fit", shap.R2)
	}
	if len(shap.Importance) < 42 {
		t.Errorf("SHAP importance covers %d characteristics", len(shap.Importance))
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", 12345.678)
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "longer") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		12345:        "12345",
		42.42:        "42.42",
		0.123456:     "0.1235",
		-3333:        "-3333",
		math.NaN():   "NaN",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestOptionsAccessors(t *testing.T) {
	o := DefaultOptions()
	if len(o.datasets()) != 6 || len(o.models()) != 7 || len(o.methods()) != 3 {
		t.Fatal("default grids wrong")
	}
	if len(o.errorBounds()) != 13 {
		t.Fatal("default error bounds wrong")
	}
	if o.seeds("Transformer") != o.DeepSeeds || o.seeds("Arima") != o.ShallowSeeds {
		t.Fatal("seed counts wrong")
	}
	if o.key() == (Options{}).key() {
		t.Fatal("keys should differ")
	}
	p := PaperOptions()
	if p.Scale != 1 || p.DeepSeeds != 10 || p.ShallowSeeds != 5 {
		t.Fatal("paper options wrong")
	}
}

func TestDatasetResultCellLookup(t *testing.T) {
	g := quickGrid(t)
	ds := g.Datasets["ETTm1"]
	c := ds.Cell(compress.MethodPMC, 0.05)
	if c == nil || c.Method != compress.MethodPMC || c.Epsilon != 0.05 {
		t.Fatal("cell lookup failed")
	}
	if ds.Cell(compress.MethodPMC, 0.123) != nil {
		t.Fatal("missing cell should be nil")
	}
}

func TestFreqLabel(t *testing.T) {
	cases := map[int64]string{
		2:    "2sec",
		60:   "1min",
		900:  "15min",
		3600: "1h",
		7200: "2h",
	}
	for in, want := range cases {
		if got := freqLabel(in); got != want {
			t.Errorf("freqLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFigure7Table(t *testing.T) {
	opts := QuickOptions()
	opts.Methods = []compress.Method{compress.MethodPMC}
	tbl, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets x 2 models x 1 method x 5 default bounds.
	if len(tbl.Rows) != 2*2*1*5 {
		t.Fatalf("figure7 rows = %d", len(tbl.Rows))
	}
}

func TestOptionsSubsets(t *testing.T) {
	o := DefaultOptions()
	o.Methods = []compress.Method{compress.MethodSZ}
	o.Datasets = []string{"Wind"}
	o.Models = []string{"Arima"}
	o.ErrorBounds = []float64{0.1}
	if len(o.methods()) != 1 || o.methods()[0] != compress.MethodSZ {
		t.Fatal("method subset ignored")
	}
	if len(o.datasets()) != 1 || len(o.models()) != 1 || len(o.errorBounds()) != 1 {
		t.Fatal("subsets ignored")
	}
}

func TestRecommend(t *testing.T) {
	g := quickGrid(t)
	rec, err := Recommend(g, "ETTm1", 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CR <= 0 || rec.TFE > 0.5 {
		t.Fatalf("recommendation %+v", rec)
	}
	// The recommendation must be the max-CR cell within tolerance.
	ds := g.Datasets["ETTm1"]
	for _, c := range ds.Cells {
		var sum float64
		var n int
		for _, m := range QuickOptions().models() {
			sum += c.TFE[m]
			n++
		}
		if sum/float64(n) <= 0.5 && c.CR > rec.CR {
			t.Fatalf("cell %s eps=%v has CR %.2f > recommended %.2f", c.Method, c.Epsilon, c.CR, rec.CR)
		}
	}
	// Restricting models changes the candidate set but still succeeds.
	if _, err := Recommend(g, "ETTm1", 0.5, []string{"Arima"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Recommend(g, "Nope", 0.5, nil); err == nil {
		t.Error("unknown dataset should error")
	}
	if _, err := Recommend(g, "ETTm1", -10, nil); err == nil {
		t.Error("impossible tolerance should error")
	}
}
