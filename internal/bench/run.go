package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Each workload is set up by fresh child processes: at least
// minSetupTrials, more while they take under setupBudget seconds in all,
// at most maxSetupTrials. The last one goes on to measure, and setup_s is
// the median of all of them, so a set-up of a few milliseconds is still
// the median of many.
const (
	minSetupTrials = 5
	maxSetupTrials = 25
	setupBudget    = 1.0
)

// defaultSeconds is the nominal length of a measured phase.
const defaultSeconds = 18

// defaultTraceFile receives the spans of "-trace 1".
const defaultTraceFile = "bench-trace.json"

// Config selects what one invocation runs.
type Config struct {
	Workloads    []string
	Seed         int64
	Seconds      float64
	Trace        string // span file of the traced runs; "" = no traced run
	Out          string // record file; "" = none
	Golden       string // golden file to check; "" = the embedded testdata/golden.json
	RecordGolden string // write the observed seed-1 output hashes here
	// Small shrinks every workload to a few seconds, for tests.
	Small bool
}

// Value is a metric value with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Operations counts the operations of a workload's runs.
type Operations struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Samples is the number of operation latencies behind p50_ms and
	// tail_ms, and TailQuantile the percentile tail_ms reports.
	Samples      int     `json:"samples"`
	TailQuantile float64 `json:"tail_quantile"`
}

// Record is the result of one workload, the same shape for every workload.
type Record struct {
	Environment Environment      `json:"environment"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	EndToEnd    map[string]Value `json:"end_to_end"`
	PerLayer    map[string]Value `json:"per_layer,omitempty"`
	Operations  Operations       `json:"operations"`
	Failures    []string         `json:"failures,omitempty"`

	outputs map[string]string
	spans   []Span
}

// Main runs the command with the given arguments and returns its exit
// code. In a child process of the benchmark it runs the child's role
// instead.
func Main(args []string, stdout, stderr io.Writer) int {
	if spec, ok, err := childSpecFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return runChild(spec, os.Stdin, stdout, stderr)
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	return execute(cfg, stdout, stderr)
}

func parseFlags(args []string, stderr io.Writer) (Config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	cfg := Config{}
	list := fs.String("workloads", strings.Join(names, ","), "comma-separated workloads to run")
	fs.StringVar(list, "workload", *list, "alias of -workloads")
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed; seed 1 also checks the golden output hashes")
	fs.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "nominal length of each measured phase in seconds")
	fs.StringVar(&cfg.Trace, "trace", "", "also run each workload traced, reporting per-layer metrics and writing its spans to this file\n(0 means off, 1 means on with the spans in "+defaultTraceFile+")")
	fs.StringVar(&cfg.Out, "out", "", "write the records as JSON to this file")
	fs.StringVar(&cfg.RecordGolden, "record-golden", "", "write the observed seed-1 output hashes into this golden file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch cfg.Trace {
	case "0":
		cfg.Trace = ""
	case "1":
		cfg.Trace = defaultTraceFile
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return cfg, errors.New("unexpected arguments")
	}
	for _, name := range strings.Split(*list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, ok := lookupWorkload(name); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(names, ", "))
			return cfg, errors.New("unknown workload")
		}
		cfg.Workloads = append(cfg.Workloads, name)
	}
	if len(cfg.Workloads) == 0 || cfg.Seconds <= 0 {
		fmt.Fprintln(stderr, "bench: need at least one workload and a positive -seconds")
		return cfg, errors.New("bad flags")
	}
	if cfg.RecordGolden != "" && cfg.Seed != 1 {
		fmt.Fprintln(stderr, "bench: -record-golden needs -seed 1")
		return cfg, errors.New("bad flags")
	}
	return cfg, nil
}

// execute runs the configured workloads, prints every metric, writes the
// requested files and ends stdout with the one-line JSON summary.
func execute(cfg Config, stdout, stderr io.Writer) int {
	env := environment()
	fmt.Fprintf(stdout, "environment: cpu=%q num_cpu=%d gomaxprocs=%d go=%s goarch=%s commit=%s\n",
		env.CPU, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOARCH, env.Commit)
	var recs []Record
	for _, name := range cfg.Workloads {
		rec, err := measure(cfg, env, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printRecord(stdout, rec)
		recs = append(recs, rec)
	}
	if err := writeFiles(cfg, recs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sum := summary(cfg, recs)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// measure runs one workload: fresh set-ups, the last of which measures
// with tracing off, then, with cfg.Trace, one traced run.
func measure(cfg Config, env Environment, name string, stderr io.Writer) (Record, error) {
	rec := Record{Environment: env, Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, EndToEnd: map[string]Value{}}
	spec := childSpec{Role: roleWorkload, Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Small: cfg.Small, Golden: cfg.Golden}
	var setups []float64
	for spent := 0.0; len(setups) < minSetupTrials-1 || (spent < setupBudget && len(setups) < maxSetupTrials-1); {
		trial := spec
		trial.SetupOnly = true
		_, s, err := spawn(trial, stderr)
		if err != nil {
			return rec, fmt.Errorf("set-up trial %d: %w", len(setups)+1, err)
		}
		setups = append(setups, s)
		spent += s
	}
	res, s, err := spawn(spec, stderr)
	if err != nil {
		return rec, err
	}
	setups = append(setups, s)
	res.Metrics["setup_s"] = median(setups)
	for _, m := range endToEndMetrics {
		rec.EndToEnd[m.Name] = Value{res.Metrics[m.Name], m.Unit}
	}
	rec.add(res)
	rec.Operations.Samples, rec.Operations.TailQuantile = res.Samples, res.TailQ
	rec.outputs = res.Outputs
	if cfg.Trace == "" {
		return rec, nil
	}
	spec.Traced = true
	tres, _, err := spawn(spec, stderr)
	if err != nil {
		return rec, fmt.Errorf("traced run: %w", err)
	}
	tres.Metrics["bench.trace_overhead"] = tres.Metrics["wall_s"]/res.Metrics["wall_s"] - 1
	rec.PerLayer = map[string]Value{}
	for _, m := range perLayerMetrics() {
		rec.PerLayer[m.Name] = Value{tres.Metrics[m.Name], m.Unit}
	}
	rec.add(tres)
	rec.spans = tres.Spans
	return rec, nil
}

func (r *Record) add(res childResult) {
	r.Operations.Attempted += res.Attempted
	r.Operations.Failed += res.Failed
	r.Failures = append(r.Failures, res.Failures...)
}

// spawn runs one workload child and returns its result and the seconds
// from starting the process to its "ready" line: the set-up time.
func spawn(spec childSpec, stderr io.Writer) (childResult, float64, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, 0, err
	}
	out := bufio.NewReader(pipe)
	first, rerr := out.ReadString('\n')
	setup := time.Since(start).Seconds()
	rest, err := io.ReadAll(out)
	if werr := cmd.Wait(); werr != nil {
		return res, 0, fmt.Errorf("child exited: %w", werr)
	}
	if rerr != nil || first != "ready\n" {
		return res, 0, fmt.Errorf("child did not report ready (read %q)", first)
	}
	if err != nil || spec.SetupOnly {
		return res, setup, err
	}
	rest = bytes.TrimSpace(rest)
	if i := bytes.LastIndexByte(rest, '\n'); i >= 0 {
		rest = rest[i+1:]
	}
	if err := json.Unmarshal(rest, &res); err != nil {
		return res, 0, fmt.Errorf("child result: %w", err)
	}
	return res, setup, nil
}

func printRecord(w io.Writer, rec Record) {
	fmt.Fprintf(w, "\n%s (seed %d, %gs): %d operations attempted, %d failed; latencies over %d operations, tail_ms is p%.4g\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Operations.Attempted, rec.Operations.Failed,
		rec.Operations.Samples, 100*rec.Operations.TailQuantile)
	printValues(w, "end-to-end", endToEndMetrics, rec.EndToEnd, false)
	if rec.PerLayer != nil {
		printValues(w, "per-layer (layers this workload does not use are omitted)", perLayerMetrics(), rec.PerLayer, true)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printValues(w io.Writer, title string, defs []metricDef, vals map[string]Value, skipZero bool) {
	fmt.Fprintf(w, "  %s:\n", title)
	for _, m := range defs {
		if v := vals[m.Name]; v.Value != 0 || !skipZero {
			fmt.Fprintf(w, "    %-42s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// traceFile is one workload's spans as written to the -trace file.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

func writeFiles(cfg Config, recs []Record) error {
	if cfg.Trace != "" {
		var traces []traceFile
		for _, r := range recs {
			traces = append(traces, traceFile{Workload: r.Workload, Seed: r.Seed, Spans: withSelfTimes(r.spans)})
		}
		if err := writeJSON(cfg.Trace, traces); err != nil {
			return err
		}
	}
	if cfg.Out != "" {
		if err := writeJSON(cfg.Out, recs); err != nil {
			return err
		}
	}
	if cfg.RecordGolden != "" {
		size := "full"
		if cfg.Small {
			size = "small"
		}
		for _, r := range recs {
			if len(r.outputs) == 0 {
				continue
			}
			if err := recordGolden(cfg.RecordGolden, runtime.GOARCH, size, r.Workload, r.outputs); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// summaryLine is the last line of stdout: whether every check passed, the
// operation counts, and the end-to-end metrics (per-layer ones with
// -trace). With more than one workload, metric names carry a
// "workload/" prefix.
type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func summary(cfg Config, recs []Record) summaryLine {
	s := summaryLine{Metrics: map[string]Value{}}
	for _, r := range recs {
		s.Attempted += r.Operations.Attempted
		s.Failed += r.Operations.Failed
		vals := r.EndToEnd
		if cfg.Trace != "" {
			vals = r.PerLayer
		}
		for name, v := range vals {
			if len(recs) > 1 {
				name = r.Workload + "/" + name
			}
			s.Metrics[name] = v
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}
