package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/datasets"
	"lossyts/internal/serve"
	"lossyts/internal/timeseries"
)

// Request outcomes of the serve workload, in schedule-mix order.
const (
	kindMiss       = iota // fresh /v1/compress: computed and appended to the store
	kindHit               // repeated /v1/compress: read back from the store
	kindDecompress        // /v1/decompress: never cached
)

// serveOutcomes names the request kinds in per-layer metric names.
var serveOutcomes = []string{"compress_miss", "compress_hit", "decompress"}

const (
	serveEps = 0.05
	// serveRef indexes the reference rate in serveSize.rates; the
	// end-to-end metrics of the serve workload are measured there.
	serveRef = 0
	// serveSlow is the latency past which a request counts as failed.
	serveSlow = 5 * time.Second
	// Limits a rate must meet to count towards serve.max_rps.
	maxRPSTailMs = 25
	maxRPSLateMs = 5
)

// serveSize is the serve workload's shape.
type serveSize struct {
	scale  float64   // ElecDem length scale
	window int       // points per request
	hot    int       // repeated keys primed during set-up
	rates  []float64 // requests per second; rates[serveRef] is the reference
	secs   []float64 // seconds of traffic at each rate
}

// serveRates are the offered loads in requests per second. The reference
// rate keeps the two connections about a third busy, where the tail is
// set by the requests' own work and repeats from run to run; the
// server runs in its own process on the same two cores as the load, and
// between the middle and the high rate p99 can jump by an order of
// magnitude (the knee).
var serveRates = []float64{500, 1000, 2000}

// serveShares split the nominal seconds between the rates: the reference
// rate gets most of them (7000 requests, 70 beyond its p99, at the default
// 18 s), the other two enough for 20 beyond theirs.
var serveShares = []float64{7.0 / 9, 1.0 / 9, 1.0 / 9}

func serveSizing(c *child) serveSize {
	size := serveSize{scale: 1, window: 2048, hot: 64, rates: serveRates}
	if c.spec.Small {
		size = serveSize{scale: 0.05, window: 256, hot: 8, rates: []float64{100, 200, 400}}
	}
	for _, share := range serveShares {
		size.secs = append(size.secs, share*c.spec.Seconds)
	}
	return size
}

// rateName names a non-reference rate in per-layer metrics; the small
// sizing reports into the same names.
func rateName(ri int) string { return fmt.Sprintf("serve.rps%g", serveRates[ri]) }

// serveInputs are the generated request bodies and their expected answers.
type serveInputs struct {
	size     serveSize
	methods  []compress.Method
	text     []byte // one FormatFloat(v, 'g', -1, 64) line per point
	offs     []int  // offs[i] is where point i's line starts; len n+1
	values   []float64
	start    int64
	interval int64
	perm     []int // window start positions in seeded random order
	hot      []hotKey
}

// hotKey is a window primed into the server's store during set-up.
type hotKey struct {
	pos     int
	method  compress.Method
	payload []byte // the expected /v1/compress answer
	body    []byte // the expected /v1/decompress answer for payload
}

func (in *serveInputs) window(pos int) []byte {
	return in.text[in.offs[pos]:in.offs[pos+in.size.window]]
}

func (in *serveInputs) compressURL(base string, pos int, m compress.Method) string {
	return fmt.Sprintf("%s/v1/compress?method=%s&eps=%g&start=%d&interval=%d",
		base, m, serveEps, in.start+int64(pos)*in.interval, in.interval)
}

// encodeWindow is the in-process encode a /v1/compress answer must equal:
// batch Compress, which drives the same kernels as the server's stream.
func (in *serveInputs) encodeWindow(pos int, m compress.Method) ([]byte, error) {
	comp, err := compress.New(m)
	if err != nil {
		return nil, err
	}
	s := timeseries.New("", in.start+int64(pos)*in.interval, in.interval, in.values[pos:pos+in.size.window])
	c, err := comp.Compress(s, serveEps)
	if err != nil {
		return nil, err
	}
	return c.Payload, nil
}

func newServeInputs(c *child) (*serveInputs, error) {
	size := serveSizing(c)
	ds, err := datasets.Load("ElecDem", size.scale, c.spec.Seed)
	if err != nil {
		return nil, err
	}
	s := ds.Target()
	in := &serveInputs{size: size, methods: compress.LossyMethods(), values: s.Values, start: s.Start, interval: s.Interval}
	for _, v := range s.Values {
		in.offs = append(in.offs, len(in.text))
		in.text = strconv.AppendFloat(in.text, v, 'g', -1, 64)
		in.text = append(in.text, '\n')
	}
	in.offs = append(in.offs, len(in.text))
	positions := s.Len() - size.window + 1
	fresh := 0.0
	for ri, r := range size.rates {
		fresh += r * size.secs[ri]
	}
	if need := size.hot + int(fresh); positions < need {
		return nil, fmt.Errorf("ElecDem has %d windows, the schedule needs up to %d", positions, need)
	}
	in.perm = rand.New(rand.NewSource(c.spec.Seed)).Perm(positions)
	for k := 0; k < size.hot; k++ {
		hk := hotKey{pos: in.perm[k], method: in.methods[k%len(in.methods)]}
		if hk.payload, err = in.encodeWindow(hk.pos, hk.method); err != nil {
			return nil, err
		}
		if hk.body, err = decompressBody(hk.method, hk.payload); err != nil {
			return nil, err
		}
		in.hot = append(in.hot, hk)
	}
	return in, nil
}

// decompressBody renders the expected /v1/decompress answer for a payload
// and checks that every line parses back to its value exactly.
func decompressBody(m compress.Method, payload []byte) ([]byte, error) {
	values, err := (&compress.Compressed{Method: m, Payload: payload}).AppendValues(nil)
	if err != nil {
		return nil, err
	}
	var body []byte
	for _, v := range values {
		line := len(body)
		body = strconv.AppendFloat(body, v, 'g', -1, 64)
		back, err := strconv.ParseFloat(string(body[line:]), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			return nil, fmt.Errorf("%v does not parse back exactly from %q", v, body[line:])
		}
		body = append(body, '\n')
	}
	return body, nil
}

// serveReq is one scheduled request.
type serveReq struct {
	kind   int
	pos    int             // kindMiss: window start
	method compress.Method // kindMiss: codec
	key    int             // kindHit, kindDecompress: hot key
}

// serveSchedule draws one rate's request mix: 40% fresh compress, 40%
// repeated compress over the hot keys, 20% decompress. Fresh windows come
// from the seeded permutation at *cursor, so none repeats in the run.
func serveSchedule(in *serveInputs, seed int64, rateIdx, n int, cursor *int) []serveReq {
	rng := rand.New(rand.NewSource(seed*31 + int64(rateIdx)))
	reqs := make([]serveReq, n)
	fresh := 0
	for i := range reqs {
		switch u := rng.Float64(); {
		case u < 0.4:
			reqs[i] = serveReq{kind: kindMiss, pos: in.perm[*cursor], method: in.methods[fresh%len(in.methods)]}
			*cursor++
			fresh++
		case u < 0.8:
			reqs[i] = serveReq{kind: kindHit, key: rng.Intn(len(in.hot))}
		default:
			reqs[i] = serveReq{kind: kindDecompress, key: rng.Intn(len(in.hot))}
		}
	}
	return reqs
}

// sample is one open-loop operation: when it was due, sent and done, and
// why it failed ("" when it did not).
type sample struct {
	due, sent, done time.Time
	fail            string
}

func (s sample) latencyMs() float64 { return float64(s.done.Sub(s.due)) / 1e6 }
func (s sample) lateMs() float64    { return float64(s.sent.Sub(s.due)) / 1e6 }

// openLoop issues n operations on a fixed schedule, operation i being due
// at start + i/rate, from conns goroutines that each perform one operation
// at a time. An operation whose goroutines are all busy at its due time is
// sent late, and its latency still counts from the due time, so a stall
// shows in every request queued behind it.
func openLoop(n int, rate float64, conns int, do func(i int) string) []sample {
	samples := make([]sample, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := &samples[i]
				s.due, s.sent = due, time.Now()
				s.fail = do(i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return samples
}

// serverProc is a server child: serve.New(...).Handler() behind an
// http.Server on a loopback port, with a fresh cache store.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	base  string
	cache string
}

// serverReport is what a server child prints when it shuts down.
type serverReport struct {
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func startServer(dir string, idx int) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cache: filepath.Join(dir, fmt.Sprintf("cache-%d.cells", idx))}
	raw, err := json.Marshal(childSpec{Role: roleServer, Cache: p.cache})
	if err != nil {
		return nil, err
	}
	p.cmd = exec.Command(exe)
	p.cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	p.cmd.Stderr = os.Stderr
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.out = bufio.NewReader(stdout)
	var hello struct{ Addr string }
	if err := p.readJSON(&hello); err != nil {
		p.stop()
		return nil, fmt.Errorf("server child: %w", err)
	}
	p.base = "http://" + hello.Addr
	return p, nil
}

func (p *serverProc) readJSON(v any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// mark starts the server's measured phase (its allocation baseline).
func (p *serverProc) mark() error {
	if _, err := io.WriteString(p.stdin, "mark\n"); err != nil {
		return err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return err
	}
	if line != "marked\n" {
		return fmt.Errorf("server child answered %q to mark", line)
	}
	return nil
}

// stop closes the server's stdin, which shuts it down, and waits for it.
func (p *serverProc) stop() (serverReport, error) {
	var rep serverReport
	p.stdin.Close()
	rerr := p.readJSON(&rep)
	if err := p.cmd.Wait(); err != nil {
		return rep, err
	}
	return rep, rerr
}

func (p *serverProc) cacheBytes() int64 {
	fi, err := os.Stat(p.cache)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runServer is the server child: it serves until its stdin closes, then
// drains, closes the store and reports its allocation since "mark" and its
// peak resident set.
func runServer(spec childSpec, stdin io.Reader, stdout io.Writer) error {
	s, err := serve.New(serve.Options{CachePath: spec.Cache})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if err := json.NewEncoder(stdout).Encode(map[string]string{"addr": ln.Addr().String()}); err != nil {
		return err
	}
	base := totalAllocMB()
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		if sc.Text() == "mark" {
			base = totalAllocMB()
			fmt.Fprintln(stdout, "marked")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.Close())
	rep := serverReport{AllocMB: totalAllocMB() - base, PeakRSSMB: peakRSSMB()}
	return errors.Join(err, json.NewEncoder(stdout).Encode(rep))
}

// serveClient issues the workload's requests over loadWorkers keep-alive
// connections.
type serveClient struct {
	in   *serveInputs
	http *http.Client
	bufs sync.Pool
}

func newServeClient(in *serveInputs) *serveClient {
	tr := &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers, DisableCompression: true}
	return &serveClient{
		in:   in,
		http: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

// post sends one request and returns the cache layer that answered, the
// response body (valid until the buffer is returned) and a failure.
func (cl *serveClient) post(url string, body []byte) (*bytes.Buffer, string, string) {
	resp, err := cl.http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, "", err.Error()
	}
	defer resp.Body.Close()
	buf := cl.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		cl.bufs.Put(buf)
		return nil, "", err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		cl.bufs.Put(buf)
		return nil, "", fmt.Sprintf("status %d", resp.StatusCode)
	}
	return buf, resp.Header.Get("X-Lossyts-Cache"), ""
}

// prime stores every hot key through /v1/compress, checking each answer.
func (cl *serveClient) prime(base string) error {
	for k, hk := range cl.in.hot {
		buf, layer, fail := cl.post(cl.in.compressURL(base, hk.pos, hk.method), cl.in.window(hk.pos))
		if fail != "" {
			return fmt.Errorf("priming key %d: %s", k, fail)
		}
		ok := layer == "miss" && bytes.Equal(buf.Bytes(), hk.payload)
		cl.bufs.Put(buf)
		if !ok {
			return fmt.Errorf("priming key %d: cache layer %q or payload differs from the in-process encode", k, layer)
		}
	}
	return nil
}

func (cl *serveClient) stats(base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := cl.http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// rateRun is the outcome of one rate's traffic against one fresh server.
type rateRun struct {
	rate      float64
	reqs      []serveReq
	samples   []sample
	missHash  []string // kindMiss: hash of the returned payload
	delta     serve.Stats
	growth    int64 // cache file bytes appended during the traffic
	server    serverReport
	reqOffset int64 // request IDs of this rate start here
}

// do performs request i of run r, checking its answer. Fresh payloads are
// only hashed here and compared with in-process encodes after the run.
func (cl *serveClient) do(base string, r *rateRun, i int) string {
	q := r.reqs[i]
	in := cl.in
	var url string
	var body []byte
	switch q.kind {
	case kindMiss:
		url, body = in.compressURL(base, q.pos, q.method), in.window(q.pos)
	case kindHit:
		hk := in.hot[q.key]
		url, body = in.compressURL(base, hk.pos, hk.method), in.window(hk.pos)
	default:
		hk := in.hot[q.key]
		url, body = fmt.Sprintf("%s/v1/decompress?method=%s", base, hk.method), hk.payload
	}
	buf, layer, fail := cl.post(url, body)
	if fail != "" {
		return fail
	}
	defer cl.bufs.Put(buf)
	switch q.kind {
	case kindMiss:
		r.missHash[i] = hashHex(buf.Bytes())
		if layer != "miss" {
			return fmt.Sprintf("fresh window answered by cache layer %q", layer)
		}
	case kindHit:
		if layer != "hit" {
			return fmt.Sprintf("repeated key answered by cache layer %q", layer)
		}
		if !bytes.Equal(buf.Bytes(), in.hot[q.key].payload) {
			return "hit payload differs from its miss"
		}
	default:
		if !bytes.Equal(buf.Bytes(), in.hot[q.key].body) {
			return "decompressed values differ from the in-process decode"
		}
	}
	return ""
}

// runRate drives one rate against a primed server, then stops it.
func runRate(c *child, cl *serveClient, srv *serverProc, r *rateRun) (err error) {
	defer func() {
		var serr error
		r.server, serr = srv.stop()
		err = errors.Join(err, serr)
	}()
	before, err := cl.stats(srv.base)
	if err != nil {
		return err
	}
	size0 := srv.cacheBytes()
	if err := srv.mark(); err != nil {
		return err
	}
	r.missHash = make([]string, len(r.reqs))
	r.samples = openLoop(len(r.reqs), r.rate, loadWorkers, func(i int) string { return cl.do(srv.base, r, i) })
	after, err := cl.stats(srv.base)
	if err != nil {
		return err
	}
	if after.Hits+after.Dedups+after.Computations != after.Requests {
		c.fail("serve at %g req/s: hits %d + dedups %d + computations %d != requests %d",
			r.rate, after.Hits, after.Dedups, after.Computations, after.Requests)
	}
	r.delta = serve.Stats{Requests: after.Requests - before.Requests, Hits: after.Hits - before.Hits,
		Dedups: after.Dedups - before.Dedups, Computations: after.Computations - before.Computations}
	r.growth = srv.cacheBytes() - size0
	return nil
}

// runServe sends open-loop HTTP traffic to a server child at three rates,
// each against a fresh server whose store holds the primed hot keys.
func runServe(c *child) error {
	in, err := newServeInputs(c)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "lossyts-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cl := newServeClient(in)
	defer cl.http.CloseIdleConnections()
	srv, err := startServer(dir, 0)
	if err == nil {
		if err = cl.prime(srv.base); err != nil {
			srv.stop()
		}
	}
	if err != nil {
		return err
	}
	if !c.ready() {
		_, err := srv.stop()
		return err
	}
	runs := make([]*rateRun, len(in.size.rates))
	cursor := in.size.hot
	var reqID int64
	c.begin()
	for ri, rate := range in.size.rates {
		n := int(rate * in.size.secs[ri])
		r := &rateRun{rate: rate, reqs: serveSchedule(in, c.spec.Seed, ri, n, &cursor), reqOffset: reqID}
		runs[ri] = r
		reqID += int64(n)
		if ri > 0 {
			span := c.rec.Begin("serve.start_and_prime", 0, r.reqOffset)
			if srv, err = startServer(dir, ri); err == nil {
				if err = cl.prime(srv.base); err != nil {
					srv.stop()
				}
			}
			c.rec.End(span)
			if err != nil {
				return err
			}
		}
		if err := runRate(c, cl, srv, r); err != nil {
			return err
		}
	}
	c.end()
	ref := runs[serveRef]
	c.metric("alloc_mb", ref.server.AllocMB)
	c.metric("peak_rss_mb", ref.server.PeakRSSMB)
	msPerMiss := checkMisses(in, runs)
	for ri, r := range runs {
		for i, s := range r.samples {
			if s.fail == "" && s.done.Sub(s.due) > serveSlow {
				s.fail = fmt.Sprintf("took %v from its due time", s.done.Sub(s.due))
			}
			if s.fail != "" {
				s.fail = fmt.Sprintf("serve %g req/s request %d (%s): %s", r.rate, i, serveOutcomes[r.reqs[i].kind], s.fail)
			}
			if ri == serveRef {
				c.op(s.latencyMs(), s.fail)
			} else {
				c.attempt(s.fail)
			}
			r.samples[i] = s
		}
	}
	if c.rec != nil {
		serveLayers(c, runs, msPerMiss)
	}
	return nil
}

// checkMisses compares every fresh payload with an in-process encode of
// the same window, marking mismatches as failed, and returns the mean time
// of that encode in ms: the codec's share of a miss.
func checkMisses(in *serveInputs, runs []*rateRun) float64 {
	var encodeNs int64
	var n int
	for _, r := range runs {
		for i, q := range r.reqs {
			if q.kind != kindMiss || r.samples[i].fail != "" {
				continue
			}
			t := time.Now()
			want, err := in.encodeWindow(q.pos, q.method)
			encodeNs += int64(time.Since(t))
			n++
			switch {
			case err != nil:
				r.samples[i].fail = "in-process encode: " + err.Error()
			case hashHex(want) != r.missHash[i]:
				r.samples[i].fail = "payload differs from the in-process encode"
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(encodeNs) / float64(n) / 1e6
}

// serveLayers derives the traced run's per-layer serve metrics and records
// each request as a span tree: the wait for a free connection from its due
// time, then the round trip.
func serveLayers(c *child, runs []*rateRun, msPerMiss float64) {
	for _, r := range runs {
		for i, s := range r.samples {
			req := r.reqOffset + int64(i)
			root := c.rec.Add("serve.request", 0, req, s.due, s.done)
			c.rec.Add("serve.wait", root, req, s.due, s.sent)
			c.rec.Add("serve."+serveOutcomes[r.reqs[i].kind], root, req, s.sent, s.done)
		}
	}
	ref := runs[serveRef]
	for kind, name := range serveOutcomes {
		var lat []float64
		for i, s := range ref.samples {
			if ref.reqs[i].kind == kind {
				lat = append(lat, s.latencyMs())
			}
		}
		sorted := sortedCopy(lat)
		c.metric("serve."+name+".p50_ms", percentile(sorted, 0.5))
		p99, _ := tail(sorted)
		c.metric("serve."+name+".p99_ms", p99)
	}
	best := 0.0
	for ri, r := range runs {
		var lat, late []float64
		failed := false
		for _, s := range r.samples {
			lat = append(lat, s.latencyMs())
			late = append(late, s.lateMs())
			failed = failed || s.fail != ""
		}
		p50 := percentile(sortedCopy(lat), 0.5)
		p99, _ := tail(sortedCopy(lat))
		lateP99, _ := tail(sortedCopy(late))
		if ri == serveRef {
			c.metric("serve.late_p99_ms", lateP99)
		} else {
			c.metric(rateName(ri)+".p50_ms", p50)
			c.metric(rateName(ri)+".p99_ms", p99)
		}
		if !failed && p99 <= maxRPSTailMs && lateP99 <= maxRPSLateMs {
			best = max(best, r.rate)
		}
	}
	c.metric("serve.max_rps", best)
	c.metric("core.workexec.hits", float64(ref.delta.Hits))
	c.metric("core.workexec.dedups", float64(ref.delta.Dedups))
	c.metric("core.workexec.computations", float64(ref.delta.Computations))
	misses := 0
	for _, q := range ref.reqs {
		if q.kind == kindMiss {
			misses++
		}
	}
	if misses > 0 {
		c.metric("cellstore.bytes_per_write", float64(ref.growth)/float64(misses))
	}
	c.metric("compress.ms_per_miss", msPerMiss)
}
