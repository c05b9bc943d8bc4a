// Package cli holds the flag plumbing the lossyts commands share: the
// CPU/heap profile writers every command offers, the parallelism and
// result-store knobs of the grid-running tools, and the
// grid, serve, load-generator and monitor flag groups. Binding them here
// keeps flag names, defaults, and help text identical across binaries.
package cli

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/profiling"
)

// Common carries the shared command-line options after flag parsing.
type Common struct {
	// Parallelism bounds worker pools (0 = all CPUs, 1 = sequential).
	// Grid results are bit-identical at every setting.
	Parallelism int
	// CPUProfile and MemProfile are profile output paths ("" = off).
	CPUProfile string
	MemProfile string
	// Store is the path of a cell-addressed result store ("" = off):
	// completed grid cells are checkpointed there as they finish and
	// reused by later runs (see core.Options.Store).
	Store string
}

// BindProfiling registers the profiling flags on fs and returns the
// receiver the parsed values land in. Commands without compute knobs
// (gendata, tscompress, tsserve) use this subset.
func BindProfiling(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// Bind registers the full shared flag set: profiling plus the parallelism
// knob of the evaluation commands.
func Bind(fs *flag.FlagSet) *Common {
	c := BindProfiling(fs)
	fs.IntVar(&c.Parallelism, "parallelism", 0, "worker bound (0 = all CPUs, 1 = sequential; results are identical)")
	return c
}

// BindStore registers the result-store flag. Commands that evaluate grid
// cells through the harness (evalimpl, tsforecast) offer it:
// with a store, every completed cell is checkpointed durably, an
// interrupted run resumes where it stopped, and a grown grid computes only
// its delta.
func (c *Common) BindStore(fs *flag.FlagSet) {
	fs.StringVar(&c.Store, "store", "", "cell-addressed result store: checkpoint finished cells here, resume interrupted runs, recompute only grid deltas")
}

// Grid carries the grid-selection flags shared by the commands that run
// the evaluation grid (evalimpl and its -partition workers), so a
// coordinator and the workers it spawns parse identical grids from
// identical flags.
type Grid struct {
	// Scale shrinks dataset lengths ((0, 1]; overridden to 1 by Full).
	Scale float64
	// Seed is the base random seed.
	Seed int64
	// Full selects the paper-scale configuration.
	Full bool
	// Datasets and Models are comma-separated subset selections ("" = all).
	Datasets string
	Models   string
	// Methods selects the compression-method axis: "" keeps the paper's
	// fixed lossy grid, "all" takes every registered parameter-free lossy
	// codec (compress.LossyMethods), and a comma-separated list names
	// registered methods explicitly (GORILLA included, if asked for).
	Methods string
}

// BindGrid registers the grid-selection flag group.
func BindGrid(fs *flag.FlagSet) *Grid {
	g := &Grid{}
	fs.Float64Var(&g.Scale, "scale", 0.03, "dataset length scale in (0, 1]")
	fs.Int64Var(&g.Seed, "seed", 1, "base random seed")
	fs.BoolVar(&g.Full, "full", false, "paper-scale run: full lengths, 10/5 seeds (very slow)")
	fs.StringVar(&g.Datasets, "datasets", "", "comma-separated dataset subset (default: all six)")
	fs.StringVar(&g.Models, "models", "", "comma-separated model subset (default: all seven)")
	fs.StringVar(&g.Methods, "methods", "",
		"comma-separated compression methods, or \"all\" for every registered lossy codec (default: paper grid "+
			MethodList(compress.Methods)+"; registered: "+MethodList(compress.Registered())+")")
	return g
}

// Options resolves the grid flags plus the shared compute flags into a core
// option set — the one construction path every grid-running command uses,
// so a worker can never disagree with its coordinator about which grid (and
// therefore which cell keys) the flags mean.
func (g *Grid) Options(c *Common) core.Options {
	opts := core.DefaultOptions()
	if g.Full {
		opts = core.PaperOptions()
		opts.Scale = 1
	} else {
		opts.Scale = g.Scale
	}
	opts.Seed = g.Seed
	opts.Parallelism = c.Parallelism
	opts.Store = c.Store
	if g.Datasets != "" {
		opts.Datasets = SplitList(g.Datasets)
	}
	if g.Models != "" {
		opts.Models = SplitList(g.Models)
	}
	if g.Methods != "" {
		opts.Methods = ParseMethods(g.Methods)
	}
	return opts
}

// Args renders the group back into command-line arguments; the coordinator
// uses it to hand spawned workers exactly the grid it parsed.
func (g *Grid) Args() []string {
	args := []string{
		"-scale", strconv.FormatFloat(g.Scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(g.Seed, 10),
	}
	if g.Full {
		args = append(args, "-full")
	}
	if g.Datasets != "" {
		args = append(args, "-datasets", g.Datasets)
	}
	if g.Models != "" {
		args = append(args, "-models", g.Models)
	}
	if g.Methods != "" {
		args = append(args, "-methods", g.Methods)
	}
	return args
}

// ParseMethods resolves a -methods flag value: "all" expands to every
// registered parameter-free lossy codec, anything else splits as a
// comma-separated list of registered method names. Unknown names surface
// naturally as UnknownMethodError when the pipeline constructs the
// compressor, with the registered set in the message.
func ParseMethods(s string) []compress.Method {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return compress.LossyMethods()
	}
	var out []compress.Method
	for _, name := range SplitList(s) {
		out = append(out, compress.Method(name))
	}
	return out
}

// MethodList renders methods as the comma-separated form the -methods
// flags accept.
func MethodList(methods []compress.Method) string {
	parts := make([]string, len(methods))
	for i, m := range methods {
		parts[i] = string(m)
	}
	return strings.Join(parts, ",")
}

// ParsePartition parses the CLI's 1-based "i/n" partition syntax (e.g.
// "2/3": partition 2 of 3) into the 0-based index and worker count of
// core's WorkSet.Partition API.
func ParsePartition(s string) (index, workers int, err error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("partition %q: want i/n, e.g. 2/3", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(lhs))
	n, err2 := strconv.Atoi(strings.TrimSpace(rhs))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("partition %q: want i/n with integers, e.g. 2/3", s)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("partition %q: need 1 <= i <= n", s)
	}
	return i - 1, n, nil
}

// Serve carries the serving-plane options (cmd/tsserve) after flag parsing.
type Serve struct {
	// Addr is the listen address of the HTTP daemon.
	Addr string
	// Cache is the path of the durable result cache ("" = singleflight
	// dedupe only, nothing survives a restart).
	Cache string
	// GridStore optionally points at a completed evaluation-grid store so
	// /v1/recommend can answer dataset-level queries from it.
	GridStore string
	// MaxBodyKB caps each request body in KiB (0 = the serve default).
	MaxBodyKB int
}

// BindServe registers the serving-plane flag group.
func BindServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Addr, "addr", "localhost:8750", "listen address")
	fs.StringVar(&s.Cache, "cache", "", "durable result cache (cell-store path; empty = in-flight dedupe only)")
	fs.StringVar(&s.GridStore, "gridstore", "", "completed evaluation-grid store for /v1/recommend dataset queries (read-only)")
	fs.IntVar(&s.MaxBodyKB, "maxbody", 0, "per-request body cap in KiB (0 = server default)")
	return s
}

// Monitor carries the online-session options (cmd/tsmonitor) after flag
// parsing.
type Monitor struct {
	// Dataset, Scale, and Seed select the stream.
	Dataset string
	Scale   float64
	Seed    int64
	// Method and Eps select the lossy channel of a single session.
	Method string
	Eps    float64
	// Model optionally names an incrementally-updated forecaster.
	Model string
	// Chunk is the tick granularity in points (0 = default).
	Chunk int
	// Spikes, DriftAt, and Threshold control ground-truth injection and
	// the anomaly cut-off (see core.SessionOptions).
	Spikes    int
	DriftAt   float64
	Threshold float64
	// UpdateEvery is the model-update stride in points (0 = 4·period).
	UpdateEvery int
	// Store is a checkpoint cell store; a killed session restarted with
	// the same flags and store resumes from its last complete tick.
	Store string
	// Out is the report path ("" = stdout in single mode).
	Out string
	// Sweep switches to sweep mode: Methods × Bounds sessions, merged into
	// one BENCH_monitor.json-shaped report.
	Sweep   bool
	Methods string
	Bounds  string
}

// BindMonitor registers the online-session flag group.
func BindMonitor(fs *flag.FlagSet) *Monitor {
	m := &Monitor{}
	fs.StringVar(&m.Dataset, "dataset", "ElecDem", "dataset to stream")
	fs.Float64Var(&m.Scale, "scale", 0.01, "dataset length scale in (0, 1]")
	fs.Int64Var(&m.Seed, "seed", 1, "base random seed")
	fs.StringVar(&m.Method, "method", "PMC", "compression method of a single session")
	fs.Float64Var(&m.Eps, "eps", 0.05, "error bound of a single session")
	fs.StringVar(&m.Model, "model", "", "forecasting model updated online (empty = monitors only)")
	fs.IntVar(&m.Chunk, "chunk", 0, "tick granularity in points (0 = default)")
	fs.IntVar(&m.Spikes, "spikes", 8, "ground-truth spikes injected after warmup")
	fs.Float64Var(&m.DriftAt, "driftat", 0.7, "inject a level shift at this stream fraction (0 = none)")
	fs.Float64Var(&m.Threshold, "threshold", 9, "anomaly robust-z cut-off")
	fs.IntVar(&m.UpdateEvery, "updateevery", 0, "model update stride in points (0 = 4 periods)")
	fs.StringVar(&m.Store, "store", "", "checkpoint cell store: resume a killed session from its last tick")
	fs.StringVar(&m.Out, "out", "", "report output path (empty = stdout; sweep default BENCH_monitor.json)")
	fs.BoolVar(&m.Sweep, "sweep", false, "sweep methods x bounds instead of one session")
	fs.StringVar(&m.Methods, "methods", MethodList(compress.LossyMethods()),
		"sweep: comma-separated methods, or \"all\" for every registered lossy codec")
	fs.StringVar(&m.Bounds, "bounds", "0.01,0.05,0.1", "sweep: comma-separated error bounds")
	return m
}

// SessionOptions resolves the monitor flags into the core option set of a
// single session (sweep mode overrides Method/Eps per cell).
func (m *Monitor) SessionOptions() core.SessionOptions {
	return core.SessionOptions{
		Dataset:          m.Dataset,
		Scale:            m.Scale,
		Seed:             m.Seed,
		Method:           compress.Method(m.Method),
		Epsilon:          m.Eps,
		Model:            m.Model,
		ChunkSize:        m.Chunk,
		Spikes:           m.Spikes,
		DriftAt:          m.DriftAt,
		AnomalyThreshold: m.Threshold,
		UpdateEvery:      m.UpdateEvery,
		Store:            m.Store,
	}
}

// Start starts the requested profilers. The returned stop function flushes
// the profiles and must run on every exit path — os.Exit skips defers, so
// callers invoke it explicitly before exiting non-zero.
func (c *Common) Start() (stop func() error, err error) {
	return profiling.Start(c.CPUProfile, c.MemProfile)
}

// ApplyGOMAXPROCS caps the runtime's thread parallelism to the flag value.
// Single-run commands (tsforecast) use it as the analogue of the harness
// worker bound; 0 leaves the runtime default untouched.
func (c *Common) ApplyGOMAXPROCS() {
	if c.Parallelism > 0 {
		runtime.GOMAXPROCS(c.Parallelism)
	}
}

// SplitList parses a comma-separated flag value into its non-empty,
// trimmed elements (nil for an empty list).
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
