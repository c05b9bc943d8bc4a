package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testSeries renders n points of a noisy daily-ish sine as a value body —
// enough structure that every compressor produces segments and every model
// has something to learn.
func testSeries(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := 10 + 5*math.Sin(2*math.Pi*float64(i)/48) + 0.3*math.Sin(float64(i)*0.91)
		fmt.Fprintf(&b, "%.6f\n", v)
	}
	return b.String()
}

// newTestServer builds a Server with a fresh cache store in a temp dir and
// mounts it on an httptest.Server.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.CachePath == "" {
		opts.CachePath = filepath.Join(t.TempDir(), "cache.cells")
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, mountTestServer(t, s)
}

// mountTestServer mounts an already-built Server on an httptest.Server and
// ties both lifetimes to the test.
func mountTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestEndpointsTable drives every endpoint through its request-validation
// surface: happy paths, malformed bodies, unknown registry names (typed
// 400s), and method mismatches.
func TestEndpointsTable(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := testSeries(512)

	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantInBody string // substring of the response body, "" = don't check
	}{
		{"compress happy", "/v1/compress?method=PMC&eps=0.5", body, 200, ""},
		{"compress default eps", "/v1/compress?method=SWING", body, 200, ""},
		{"compress missing method", "/v1/compress", body, 400, "method is required"},
		{"compress unknown method", "/v1/compress?method=ZFP", body, 400, "unknown"},
		{"compress negative eps", "/v1/compress?method=PMC&eps=-1", body, 400, "negative"},
		{"compress bad eps", "/v1/compress?method=PMC&eps=abc", body, 400, "not a number"},
		{"compress malformed body", "/v1/compress?method=PMC", "1.5 2.5 banana 4.5", 400, "not a number"},
		{"compress empty body", "/v1/compress?method=PMC", "", 400, "empty body"},
		{"compress bad interval", "/v1/compress?method=PMC&interval=0", body, 400, "interval"},
		{"compress bad start", "/v1/compress?method=PMC&start=-5", body, 400, "start"},
		{"decompress unknown method", "/v1/decompress?method=NOPE", "xxxx", 400, "unknown"},
		{"decompress garbage payload", "/v1/decompress?method=PMC", "not gzip at all", 400, "invalid payload"},
		{"decompress empty body", "/v1/decompress?method=PMC", "", 400, "empty body"},
		{"forecast missing model", "/v1/forecast", body, 400, "model is required"},
		{"forecast unknown model", "/v1/forecast?model=Prophet", body, 400, "unknown"},
		{"forecast unknown method", "/v1/forecast?model=DLinear&method=ZIP", body, 400, "unknown"},
		{"forecast too short", "/v1/forecast?model=DLinear&input=24&horizon=8&epochs=1", testSeries(60), 400, "too short"},
		{"recommend happy", "/v1/recommend?maxte=0.5&methods=PMC&bounds=0.1,1", body, 200, `"found":true`},
		{"recommend unknown method", "/v1/recommend?methods=PMC,BOGUS", body, 400, "unknown"},
		{"recommend bad bound", "/v1/recommend?bounds=0.1,-2", body, 400, "bounds"},
		{"recommend grid mode unconfigured", "/v1/recommend?dataset=ETTm1", "", 400, "no grid store"},
		{"unknown route", "/v1/nope", body, 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, out)
			}
			if tc.wantInBody != "" && !strings.Contains(string(out), tc.wantInBody) {
				t.Fatalf("body %q does not contain %q", out, tc.wantInBody)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/compress?method=PMC")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET on POST route: status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestCompressDecompressRoundTrip proves the HTTP path is the real codec:
// the compress response body decompresses (via the library) to the posted
// values within the bound, and piping it back through /v1/decompress streams
// the identical reconstruction as text.
func TestCompressDecompressRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const n, eps = 700, 0.25
	body := testSeries(n)
	values, err := readValues(context.Background(), strings.NewReader(body), io.Discard, 512)
	if err != nil {
		t.Fatal(err)
	}

	resp, payload := post(t, ts, "/v1/compress?method=SWING&eps=0.25&start=1000&interval=30", body)
	if resp.StatusCode != 200 {
		t.Fatalf("compress: status %d: %s", resp.StatusCode, payload)
	}
	if got := resp.Header.Get("X-Lossyts-Points"); got != strconv.Itoa(n) {
		t.Fatalf("X-Lossyts-Points = %s, want %d", got, n)
	}
	if got := resp.Header.Get("X-Lossyts-Method"); got != "SWING" {
		t.Fatalf("X-Lossyts-Method = %s, want SWING", got)
	}
	segs, err := strconv.Atoi(resp.Header.Get("X-Lossyts-Segments"))
	if err != nil || segs <= 0 || segs >= n {
		t.Fatalf("X-Lossyts-Segments = %q, want in (0, %d)", resp.Header.Get("X-Lossyts-Segments"), n)
	}

	dresp, text := post(t, ts, "/v1/decompress?method=SWING", string(payload))
	if dresp.StatusCode != 200 {
		t.Fatalf("decompress: status %d: %s", dresp.StatusCode, text)
	}
	if got := dresp.Header.Get("X-Lossyts-Start"); got != "1000" {
		t.Fatalf("X-Lossyts-Start = %s, want 1000", got)
	}
	var rec []float64
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatalf("line %d: %v", len(rec)+1, err)
		}
		rec = append(rec, v)
	}
	if len(rec) != n {
		t.Fatalf("decompressed %d values, want %d", len(rec), n)
	}
	for i := range rec {
		// The codecs enforce a pointwise relative bound (paper Definition 4):
		// |v − v̂| ≤ ε·|v|.
		if d := math.Abs(rec[i] - values[i]); d > eps*math.Abs(values[i])*(1+1e-9) {
			t.Fatalf("value %d: |%v - %v| = %v > eps·|v| = %v", i, rec[i], values[i], d, eps*math.Abs(values[i]))
		}
	}
}

// forecastGoldenAMD64 is the SHA-256 of TestForecastEndpoint's response
// body, as computed on linux/amd64. Float arithmetic may differ on other
// architectures, so the comparison runs on amd64 only.
const forecastGoldenAMD64 = "95cd7bf51797afc10db0d0797932a0b6cf161eef2249bc3ca86d2f9546cf6119"

// TestForecastEndpoint runs one full grid cell over HTTP and checks the
// response carries the paper's quantities: baseline metrics, compression
// ratio, type error, transformed metrics, and TFE. On amd64 the body must
// also hash to the committed golden, so the numbers cannot drift.
func TestForecastEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := post(t, ts,
		"/v1/forecast?model=DLinear&method=PMC&eps=0.5&input=24&horizon=8&period=48&epochs=2&seed=1",
		testSeries(1200))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var fr forecastResponse
	if err := json.Unmarshal(out, &fr); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, out)
	}
	if fr.Model != "DLinear" || fr.N != 1200 || fr.Windows <= 0 {
		t.Fatalf("header fields wrong: %+v", fr)
	}
	if !(fr.Baseline.NRMSE > 0) || !(fr.Baseline.RMSE > 0) {
		t.Fatalf("degenerate baseline metrics: %+v", fr.Baseline)
	}
	if fr.CR <= 1 {
		t.Fatalf("CR = %v, want > 1 on a smooth series at eps=0.5", fr.CR)
	}
	if fr.TE == nil || fr.Transformed == nil || fr.TFE == nil {
		t.Fatalf("missing compression-leg fields: %+v", fr)
	}
	if !(fr.TE.NRMSE >= 0) || !(fr.Transformed.NRMSE > 0) {
		t.Fatalf("degenerate TE/transformed metrics: te=%+v tm=%+v", fr.TE, fr.Transformed)
	}
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != forecastGoldenAMD64 {
			t.Fatalf("/v1/forecast body hash drifted from the committed golden:\n got  %s\n want %s\n body %s", got, forecastGoldenAMD64, out)
		}
	}

	// The same request again must be answered from the durable cache,
	// byte-identically.
	resp2, out2 := post(t, ts,
		"/v1/forecast?model=DLinear&method=PMC&eps=0.5&input=24&horizon=8&period=48&epochs=2&seed=1",
		testSeries(1200))
	if resp2.StatusCode != 200 {
		t.Fatalf("repeat: status %d: %s", resp2.StatusCode, out2)
	}
	if resp2.Header.Get("X-Lossyts-Cache") != "hit" {
		t.Fatalf("repeat request: X-Lossyts-Cache = %q, want hit", resp2.Header.Get("X-Lossyts-Cache"))
	}
	if string(out) != string(out2) {
		t.Fatal("cached response differs from computed response")
	}
}

// TestRecommendSweep checks the series-mode sweep picks the highest-CR
// operating point within the tolerance and reports every candidate.
func TestRecommendSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := post(t, ts, "/v1/recommend?maxte=0.2&methods=PMC,SWING&bounds=0.05,0.5", testSeries(600))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var rr recommendResponse
	if err := json.Unmarshal(out, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Source != "series" || len(rr.Candidates) != 4 {
		t.Fatalf("want 4 candidates from a 2x2 sweep, got %+v", rr)
	}
	if !rr.Found {
		t.Fatalf("no recommendation found: %+v", rr)
	}
	var bestOK float64 = -1
	for _, c := range rr.Candidates {
		if c.OK && c.CR > bestOK {
			bestOK = c.CR
		}
	}
	if rr.CR != bestOK {
		t.Fatalf("recommended CR %v is not the best qualifying candidate %v", rr.CR, bestOK)
	}
	if rr.TE > rr.MaxTE {
		t.Fatalf("recommended TE %v exceeds tolerance %v", rr.TE, rr.MaxTE)
	}
}

// TestOversizedPayload413 proves the per-request memory cap: a body past
// MaxBodyBytes is rejected with 413, on both text and binary endpoints.
func TestOversizedPayload413(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 1024})
	big := testSeries(2000) // ~20 KB
	for _, path := range []string{"/v1/compress?method=PMC", "/v1/decompress?method=PMC", "/v1/recommend"} {
		resp, out := post(t, ts, path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (body: %s)", path, resp.StatusCode, out)
		}
	}
}

// TestClientCancellationPropagates cancels a forecast request whose training
// budget (100k epochs) could never finish in test time, at the moment the
// computation starts: the request can only come back promptly if the request
// context reaches the trainer's cancellation checks. The handler must answer
// 499 and count the cancellation, and the aborted result must not be cached.
func TestClientCancellationPropagates(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The hook runs on the singleflight leader right before compute: the
	// cancel lands after body parsing, before training — deterministically
	// mid-request.
	s.onCompute = func(string) { cancel() }

	req := httptest.NewRequest("POST",
		"/v1/forecast?model=GRU&input=24&horizon=8&epochs=100000&seed=1",
		strings.NewReader(testSeries(1200))).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	elapsed := time.Since(start)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body: %s)", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; the context is not reaching the trainer", elapsed)
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Fatalf("Stats().Cancelled = %d, want 1", got)
	}
	if got := s.CacheLen(); got != 0 {
		t.Fatalf("aborted computation was cached: CacheLen = %d", got)
	}
}

// TestCancellationDuringBodyRead covers the other cancellation surface: the
// client vanishes while the body is still streaming in. The handler must
// abandon the parse and record a cancellation, not an error.
func TestCancellationDuringBodyRead(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/compress?method=PMC", pr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req = req.WithContext(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			t.Error("request succeeded despite cancellation")
		}
	}()
	if _, err := io.WriteString(pw, "1.0 2.0 3.0 "); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Tear the body down with an error (not a clean Close, which would mean
	// "body complete" and could race the cancel into a successful upload):
	// the transport aborts the request and closes the connection, and the
	// client's write loop — parked on the pipe — unblocks.
	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never recorded: stats %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsAndHealth covers the observability endpoints.
func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if _, out := post(t, ts, "/v1/compress?method=PMC", testSeries(100)); len(out) == 0 {
		t.Fatal("empty compress response")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Computations != 1 {
		t.Fatalf("stats = %+v, want 1 request / 1 computation", st)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}
