package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// childEnv carries a childSpec (JSON) to a child process. Every workload
// runs in a fresh child of the benchmark's own binary, and the serve
// workload's server runs in a further child, so no workload inherits
// another's heap, caches or goroutines.
const childEnv = "LOSSYTS_BENCH_CHILD"

const (
	roleWorkload = "workload"
	roleServer   = "server"
)

// loadWorkers is the fixed load shape: every workload uses exactly two
// workers, goroutines or connections, whatever NumCPU reports, so records
// from different machines measure the same work.
const loadWorkers = 2

// maxFailureMessages caps the failure messages a child reports; Failed
// still counts every failure.
const maxFailureMessages = 20

// childSpec is what a parent passes to a child process.
type childSpec struct {
	Role      string  `json:"role"`
	Workload  string  `json:"workload,omitempty"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced,omitempty"`
	SetupOnly bool    `json:"setup_only,omitempty"`
	Small     bool    `json:"small,omitempty"`
	Golden    string  `json:"golden,omitempty"` // golden file; "" = embedded
	Cache     string  `json:"cache,omitempty"`  // server role: cache store path
}

// childResult is what a workload child prints as its last stdout line.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Samples   int                `json:"samples"` // operation latencies behind p50_ms and tail_ms
	TailQ     float64            `json:"tail_q"`  // the percentile tail_ms reports
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Outputs   map[string]string  `json:"outputs,omitempty"` // observed output hashes
	Spans     []Span             `json:"spans,omitempty"`
}

// childSpecFromEnv reports whether this process is a benchmark child.
func childSpecFromEnv() (childSpec, bool, error) {
	raw, ok := os.LookupEnv(childEnv)
	if !ok {
		return childSpec{}, false, nil
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return childSpec{}, true, fmt.Errorf("bench: bad %s: %w", childEnv, err)
	}
	return spec, true, nil
}

// runChild executes one child role and returns its exit code.
func runChild(spec childSpec, stdin io.Reader, stdout, stderr io.Writer) int {
	var err error
	switch spec.Role {
	case roleServer:
		err = runServer(spec, stdin, stdout)
	case roleWorkload:
		err = runWorkloadChild(spec, stdout)
	default:
		err = fmt.Errorf("unknown child role %q", spec.Role)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench child %s %s: %v\n", spec.Role, spec.Workload, err)
		return 1
	}
	return 0
}

func runWorkloadChild(spec childSpec, stdout io.Writer) error {
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	c := &child{spec: spec, stdout: stdout, res: childResult{Metrics: map[string]float64{}, Outputs: map[string]string{}}}
	if spec.Traced {
		c.rec = NewRecorder()
	}
	if spec.Seed == 1 {
		g, err := loadGolden(spec.Golden)
		if err != nil {
			return err
		}
		c.golden = g.lookup(runtime.GOARCH, c.size(), spec.Workload)
	}
	if err := w.run(c); err != nil {
		return err
	}
	if spec.SetupOnly {
		return nil
	}
	for key := range c.golden {
		if _, ok := c.res.Outputs[key]; !ok {
			c.fail("%s: golden output was not produced", key)
		}
	}
	sorted := sortedCopy(c.lats)
	c.res.Samples = len(sorted)
	c.res.Metrics["p50_ms"] = percentile(sorted, 0.5)
	c.res.Metrics["tail_ms"], c.res.TailQ = tail(sorted)
	c.res.Spans = c.rec.Spans()
	return json.NewEncoder(stdout).Encode(c.res)
}

// child is the state of one workload child: its spec, span recorder,
// goldens and the result it is filling in. Workers of a workload share it,
// so the recording methods lock.
type child struct {
	spec   childSpec
	stdout io.Writer
	rec    *Recorder         // nil when untraced
	golden map[string]string // nil: check invariants only

	mu   sync.Mutex
	res  childResult
	lats []float64

	t0     time.Time
	alloc0 float64
}

func (c *child) size() string {
	if c.spec.Small {
		return "small"
	}
	return "full"
}

// ready marks the end of set-up. It reports whether to go on measuring:
// a set-up-only child stops here.
func (c *child) ready() bool {
	fmt.Fprintln(c.stdout, "ready")
	return !c.spec.SetupOnly
}

// begin starts the measured phase.
func (c *child) begin() {
	c.alloc0 = totalAllocMB()
	c.t0 = time.Now()
}

// end closes the measured phase and returns its wall clock in seconds.
func (c *child) end() float64 {
	wall := time.Since(c.t0).Seconds()
	c.metric("wall_s", wall)
	c.metric("alloc_mb", totalAllocMB()-c.alloc0)
	c.metric("peak_rss_mb", peakRSSMB())
	return wall
}

func (c *child) metric(name string, v float64) {
	c.mu.Lock()
	c.res.Metrics[name] = v
	c.mu.Unlock()
}

// op records one attempted operation: its latency and, when failure is
// non-empty, why it failed.
func (c *child) op(ms float64, failure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	c.lats = append(c.lats, ms)
	if failure != "" {
		c.failLocked(failure)
	}
}

// attempt records one attempted operation whose latency is not part of
// the workload's latency metrics.
func (c *child) attempt(failure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	if failure != "" {
		c.failLocked(failure)
	}
}

// fail records a failure of an operation already counted by op, or of a
// check that spans the whole run (an invariant over every request).
func (c *child) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(fmt.Sprintf(format, args...))
}

func (c *child) failLocked(msg string) {
	c.res.Failed++
	if len(c.res.Failures) < maxFailureMessages {
		c.res.Failures = append(c.res.Failures, msg)
	}
}

// output records the hash of one named output and checks it against the
// golden set, returning a failure message on a mismatch ("" otherwise).
func (c *child) output(key string, data []byte) string {
	h := hashHex(data)
	c.mu.Lock()
	c.res.Outputs[key] = h
	c.mu.Unlock()
	if c.golden == nil {
		return ""
	}
	want, ok := c.golden[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no golden hash for this output", key)
	case want != h:
		return fmt.Sprintf("%s: output hash %s differs from golden %s", key, h[:12], want[:min(12, len(want))])
	}
	return ""
}
