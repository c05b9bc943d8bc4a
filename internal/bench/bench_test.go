package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child processes,
// which the benchmark starts from its own executable.
func TestMain(m *testing.M) {
	if spec, ok, err := childSpecFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(runChild(spec, os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantRank int
	}{
		{12000, 11880}, // p99 itself: 120 samples beyond
		{1000, 990},    // p99 with exactly 10 beyond
		{756, 746},     // p99 would leave 8 beyond; back off to 10
		{20, 10},
		{11, 1},
		{10, 10}, // no percentile qualifies: the maximum
		{1, 1},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v, q := tail(sorted)
		if int(v) != tc.wantRank {
			t.Errorf("n=%d: tail is rank %v, want %d", tc.n, v, tc.wantRank)
		}
		if beyond := tc.n - int(v); tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
		if tc.n > minBeyond && q != float64(tc.wantRank)/float64(tc.n) {
			t.Errorf("n=%d: tail quantile %v", tc.n, q)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := withSelfTimes([]Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "a.1", Start: 15, End: 20},
	})
	want := map[string]int64{"root": 40, "a": 25, "b": 30, "c": 30, "a.1": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	var nilRec *Recorder
	if id := nilRec.Begin("x", 0, 0); id != 0 || nilRec.Spans() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

// TestOpenLoopLatencyFromDueTime stalls the server on one request while a
// second waits behind it, so both connections are busy: requests due
// during the stall are sent late, and their latency counts that wait.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stalled, stall = 10, 150 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.URL.Query().Get("i") == fmt.Sprint(stalled) {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()
	client := srv.Client()
	samples := openLoop(40, 200, 2, func(i int) string {
		resp, err := client.Get(fmt.Sprintf("%s/?i=%d", srv.URL, i))
		if err != nil {
			return err.Error()
		}
		resp.Body.Close()
		return ""
	})
	for i, s := range samples {
		if s.fail != "" {
			t.Fatalf("request %d: %s", i, s.fail)
		}
	}
	// Request 12 is due 10 ms after the stalled one, when both connections
	// are taken: it cannot be sent before the stall ends.
	queued := samples[stalled+2]
	if late := queued.lateMs(); late < 50 {
		t.Errorf("request due during the stall was only %.1f ms late", late)
	}
	if sinceSend := float64(queued.done.Sub(queued.sent)) / 1e6; queued.latencyMs() < queued.lateMs() || sinceSend > queued.latencyMs()/2 {
		t.Errorf("latency %.1f ms should count the %.1f ms wait, not just the %.1f ms since sending",
			queued.latencyMs(), queued.lateMs(), sinceSend)
	}
	if before := samples[2].latencyMs(); before > 50 {
		t.Errorf("a request before the stall took %.1f ms", before)
	}
}

func TestCheckBoundTolerance(t *testing.T) {
	raw := []float64{0, 100, -4}
	for _, tc := range []struct {
		dec []float64
		ok  bool
	}{
		{[]float64{1.7763568394002505e-15, 110, -4.4}, true}, // v = 0 decodes to rounding noise
		{[]float64{0, 110.00000000000001, -4}, true},         // an ulp past ε
		{[]float64{0, 111, -4}, false},
		{[]float64{0.2, 100, -4}, false}, // where v = 0 the bound is absolute
		{[]float64{0, 100}, false},
	} {
		if got := checkBound(raw, tc.dec, 0.1) == ""; got != tc.ok {
			t.Errorf("checkBound(%v) ok = %v, want %v", tc.dec, got, tc.ok)
		}
	}
}

// runBench runs execute with small sizes and returns its exit code and
// the summary line.
func runBench(t *testing.T, cfg Config) (int, summaryLine) {
	t.Helper()
	cfg.Small = true
	if cfg.Seconds == 0 {
		cfg.Seconds = 0.9
	}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last stdout line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	if t.Failed() || (code != 0 && sum.Failed == 0) {
		t.Logf("stdout:\n%s\nstderr:\n%s", &stdout, &stderr)
	}
	return code, sum
}

func TestCorruptedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark children")
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if code, sum := runBench(t, Config{Workloads: []string{"ingest"}, Seed: 1, RecordGolden: path}); code != 0 || !sum.Correct {
		t.Fatalf("recording run: exit %d, %+v", code, sum)
	}
	g, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	outputs := g.lookup(runtime.GOARCH, "small", "ingest")
	key := "ETTm1/SZ/0.05"
	if outputs[key] == "" {
		t.Fatalf("no recorded hash for %s in %v", key, outputs)
	}
	outputs[key] = strings.Repeat("0", 64)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, sum := runBench(t, Config{Workloads: []string{"ingest"}, Seed: 1, Golden: path})
	if code == 0 || sum.Correct || sum.Failed != 1 || sum.Attempted == 0 {
		t.Fatalf("corrupted golden: exit %d, summary %+v; want a non-zero exit and exactly one failed operation", code, sum)
	}
}

// TestSmokeAllWorkloads runs every workload at reduced size, traced, and
// checks that each reports every metric and a span file.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark children")
	}
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	code, sum := runBench(t, Config{Workloads: names, Seed: 2, Trace: trace, Out: out})
	if code != 0 || !sum.Correct {
		t.Fatalf("exit %d, summary %+v", code, sum)
	}
	var recs []Record
	readJSON(t, out, &recs)
	if len(recs) != len(workloads) {
		t.Fatalf("%d records, want %d", len(recs), len(workloads))
	}
	// One layer each workload must exercise, so an empty traced run fails.
	exercised := map[string]string{
		"grid":    "forecast.fit.DLinear_s",
		"ingest":  "compress.SZ.decode_ns_pt",
		"serve":   "serve.compress_hit.p50_ms",
		"monitor": "core.session.nomodel_points_per_s",
	}
	for _, r := range recs {
		for _, m := range endToEndMetrics {
			if v, ok := r.EndToEnd[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v", r.Workload, m.Name, v)
			}
		}
		for _, m := range perLayerMetrics() {
			if _, ok := r.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", r.Workload, m.Name)
			}
		}
		if v := r.PerLayer[exercised[r.Workload]].Value; !(v > 0) {
			t.Errorf("%s: %s = %v", r.Workload, exercised[r.Workload], v)
		}
		if r.Environment.NumCPU == 0 || r.Environment.GoVersion == "" {
			t.Errorf("%s: incomplete environment %+v", r.Workload, r.Environment)
		}
	}
	// The grid's stages and idle core time add up to the traced wall on
	// every core.
	grid := recs[0]
	busy := grid.PerLayer["core.idle_core_s"].Value
	for name, v := range grid.PerLayer {
		if strings.HasPrefix(name, "core.stage.") {
			busy += v.Value
		}
	}
	tracedWall := grid.EndToEnd["wall_s"].Value * (1 + grid.PerLayer["bench.trace_overhead"].Value)
	if d := busy/(tracedWall*loadWorkers) - 1; d < -0.01 || d > 0.01 {
		t.Errorf("grid: stages + idle = %v s, traced wall × %d = %v s", busy, loadWorkers, tracedWall*loadWorkers)
	}
	var traces []traceFile
	readJSON(t, trace, &traces)
	for _, tr := range traces {
		if len(tr.Spans) == 0 {
			t.Errorf("%s: no spans", tr.Workload)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &bj)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEndMetrics)
	compare("per_layer", bj.PerLayer, perLayerMetrics())
}

// TestNoLegacyDependencies keeps the benchmark independent of the code
// the roadmap plans to delete: the internal/cli flag groups, the old
// bench commands and the legacy PhaseTimings buckets.
func TestNoLegacyDependencies(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	legacy := regexp.MustCompile(`Timings\.(Setup|Compression|Planning|Forecast|Wall)\b`)
	fset := token.NewFileSet()
	for _, f := range append(files, filepath.Join("..", "..", "cmd", "bench", "main.go")) {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		af, err := parser.ParseFile(fset, f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "lossyts/internal/cli" || strings.HasPrefix(p, "lossyts/cmd/") {
				t.Errorf("%s imports %s", f, p)
			}
		}
		if m := legacy.Find(src); m != nil {
			t.Errorf("%s reads the legacy %s bucket", f, m)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
