// Command bench is the repository's benchmark: one harness that measures
// the grid, ingest, serve and monitor planes end to end and layer by layer,
// and checks every output it measures.
//
// # Running it
//
//	go run ./cmd/bench [-workloads grid,ingest,serve,monitor] [-seed N]
//	                   [-seconds 18] [-trace FILE] [-out FILE]
//
// Each workload runs in a fresh child process of the same binary (the
// serve workload's server in a further child), so no workload inherits
// another's heap, caches or goroutines. The command prints every metric
// by name with its unit, and ends standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 31.2, "unit": "s"}, ...}}
//
// holding the end-to-end metrics, or with -trace the per-layer ones (with
// several workloads, names carry a "workload/" prefix). It exits non-zero
// when any operation fails or any output is wrong.
//
//   - -seed changes only the generated inputs (datasets, request mix and
//     window choice; the grid's Options.Seed also seeds model
//     initialisation, because the grid derives both from it). Seed 1
//     additionally checks the golden output hashes in
//     internal/bench/testdata/golden.json, keyed by GOARCH; other seeds
//     and architectures without goldens check the invariants only.
//   - -seconds is the nominal length of each measured phase. The work is
//     derived from it, never from the machine's speed, so two commits do
//     the same work: ingest runs one round per 3 s, monitor one pass per
//     9 s, serve splits the time 7:1:1 between its three rates. The grid
//     is one RunGridContext call whatever the setting.
//   - -trace FILE additionally runs each workload traced, reports the
//     per-layer metrics from that run and writes its spans (name, start,
//     end, parent, request ID and self time) to FILE. "-trace 0" is off
//     and "-trace 1" writes bench-trace.json.
//   - -out FILE writes one record per workload, the same shape for every
//     workload: environment (CPU model, NumCPU, GOMAXPROCS, Go version,
//     GOARCH, commit), workload, seed, end-to-end metrics, per-layer
//     metrics and operation counts.
//   - -record-golden FILE writes the observed seed-1 output hashes into a
//     golden file. Regenerate the committed goldens only for an intended
//     output change: go run ./cmd/bench -record-golden internal/bench/testdata/golden.json
//
// cmd/bench/run.sh is the same command for a bare checkout: it builds the
// binary with every cache and temporary file under .bench_build (or
// $CARGO_TARGET_DIR) and runs it with the given arguments.
//
// # Load shape
//
// Every workload uses exactly two workers, goroutines or connections. The
// number is fixed in code, not taken from NumCPU, so records from
// different machines measure the same work; the environment block says
// what the machine was.
//
// # Workloads
//
//   - grid: the paper's own job. core.RunGridContext over ETTm1 and
//     Weather, all seven models, the five compress.LossyMethods() and
//     ε ∈ {0.01, 0.05, 0.1, 0.4}: 40 cells and 14 training units, with
//     Parallelism 2 and no store. Training runs six epochs with early
//     stopping off, so the work is the same for every seed. Model fitting
//     dominates (train ≈ 95% of the stage time) and the codecs barely
//     register, so fit and eval optimisations show here and codec
//     optimisations should not move it.
//     An operation is a cell; every cell is ready when the call returns, so
//     each cell's latency is the call's wall clock.
//   - ingest: the paper's §1 edge scenario. All six datasets at paper
//     length go through the six stream codecs, the five lossy ones at the
//     four bounds plus Gorilla: 126 jobs and 19.05 M points per round.
//     Each job pushes 512-point chunks (compress.NewStreamEncoderAt,
//     PushChunk, CloseAppend), decodes with Compressed.AppendValues and
//     checks the bound; two workers share the jobs. Only the codec kernels
//     and gzip work here; no forecasting runs. An operation is a job.
//   - serve: open-loop HTTP traffic from the benchmark process to
//     serve.New(...).Handler() in a child process with a fresh cache store.
//     Requests carry 2048-point ElecDem windows as FormatFloat(v, 'g', -1,
//     64) lines and rotate over the five lossy codecs at ε = 0.05: 40%
//     fresh /v1/compress (a miss that appends to the store), 40% repeated
//     /v1/compress over 64 keys primed during set-up (a hit that reads the
//     store) and 20% /v1/decompress (never cached). Fresh windows come from
//     a seeded permutation and never repeat. The rates are 500 (the
//     reference), 1000 and 2000 req/s, each against a fresh server; each
//     request is timed from when it was due. Small-request overheads
//     (parsing, hashing, the store, JSON) dominate here, not kernel
//     throughput. /v1/forecast stays out: a cold miss is model fitting,
//     which grid covers. With the server in its own process on the same
//     two cores as the load, p99 jumps by an order of magnitude between
//     1000 and 2000 req/s on some runs; the reference rate sits well
//     below that knee, where the tail repeats from run to run. An
//     operation is a request.
//   - monitor: the online plane. Ten core.Sessions (five lossy codecs × ε ∈
//     {0.01, 0.1}) on ElecDem at scale 0.05, each with warm-start DLinear
//     updates, eight spikes, a drift at 60% of the stream and a checkpoint
//     to its own store every tick, two at a time. DLinear trains eight
//     epochs (its own ×10) and its initial fit never stops early, so the
//     work is the same for every seed. The forecast layer is used
//     incrementally rather than as full fits, and the store is write-only.
//     An operation is a session.
//
// # End-to-end metrics
//
// Measured with tracing off; every workload reports all of them. The
// regression bounds are in BENCHMARK.json.
//
//	setup_s      median over fresh child processes (at least five, more while
//	             they fit in a second, at most 25) of the time from process
//	             start to the end of set-up: input generation, StreamTarget
//	             calibration, and for serve the server start and the primed
//	             keys
//	wall_s       wall clock of the measured phase
//	p50_ms       median operation latency (serve: at the reference rate)
//	tail_ms      the highest percentile, capped at p99, with at least ten
//	             operations beyond it (the record states which and how
//	             many samples): p99 on serve, about p98.7 over ingest's
//	             756 jobs, the median of monitor's 20 sessions, and the
//	             wall clock on grid
//	alloc_mb     heap allocated during the measured phase (TotalAlloc
//	             delta); for serve, by the server child at the reference rate
//	peak_rss_mb  VmHWM of the process running the system; for serve, the
//	             server child at the reference rate
//
// An operation fails on an error, a non-200 response, a wrong output or a
// request slower than 5 s from its due time; "failed" counts those plus
// failed whole-run checks.
//
// # Per-layer metrics
//
// Reported from the traced run and named by module; a workload reports 0
// for a layer it does not use. Each names the end-to-end metric it should
// move. All layers are timed from outside, around calls into their public
// functions.
//
//	core.stage.<stage>_s, core.idle_core_s, core.units, core.cell_evals
//	    grid's own Timings.Stages/Units/CellEvals (never the legacy phase
//	    buckets); idle is the traced run's wall × 2 − Σ stages, so the stages
//	    and idle time add up to wall_s × (1 + bench.trace_overhead) × 2. Move
//	    wall_s on grid: train and forecast carry it, and idle time is the
//	    cost of straggler units such as Informer.
//	forecast.fit.<Model>_s, forecast.predict.<Model>_s
//	    a bench-side replay of every grid unit (scaled split, seed
//	    Seed+si·7919, SetWindowPhase, windows from each cell's Decompressed
//	    at the grid's eval stride) whose NRMSE must equal the grid's bit for
//	    bit. Move wall_s on grid; no change on ingest or serve, and on
//	    monitor only through the DLinear update path.
//	compress.<C>.{push,close,gzip,decode,gunzip}_ns_pt, compress.<C>.payload_bytes_pt
//	    ingest's push, close and decode spans per point, for each stream
//	    codec; gzip is compress.AppendGzip over the gunzipped frame (the gzip
//	    share of close) and gunzip is compress.AppendGunzip of the payload
//	    (the gunzip share of decode). Move wall_s and p50_ms on ingest and
//	    p50_ms on serve; grid should not move.
//	compress_mpts_s, decompress_mpts_s
//	    ingest points over the summed encode and decode time. Move wall_s on
//	    ingest.
//	datasets.load_s
//	    ingest's dataset generation. Moves setup_s on ingest.
//	serve.{compress_miss,compress_hit,decompress}.{p50,p99}_ms
//	    latency by outcome at the reference rate. Move p50_ms and tail_ms on
//	    serve.
//	serve.late_p99_ms, serve.max_rps
//	    diagnostics that validate a serve run: how late the generator sent
//	    requests, and the highest rate with p99 ≤ 25 ms, no failures and late
//	    p99 ≤ 5 ms.
//	serve.rps1000.{p50,p99}_ms, serve.rps2000.{p50,p99}_ms
//	    latency at the two other rates.
//	core.workexec.{hits,dedups,computations}, cellstore.bytes_per_write
//	    /v1/stats deltas and cache-file growth per miss at the reference
//	    rate. Move p50_ms on serve.
//	compress.ms_per_miss
//	    an in-bench replay of the codec work of each fresh window; with the
//	    miss and hit latencies it splits the cost of a miss.
//	points_per_s, core.session.{p50_s,ticks}, forecast.updates,
//	cellstore.bytes_per_tick, core.session.nomodel_points_per_s
//	    monitor throughput, the sessions, model-update events, checkpoint
//	    bytes per tick, and a twin pass without a model: the gap between the
//	    two throughputs is the cost of the model updates. Move wall_s on
//	    monitor. (On ingest, points_per_s is the round throughput.)
//	bench.trace_overhead
//	    traced wall over untraced wall, minus 1.
//
// The traced run also makes the checks too costly for timed runs: every
// ingest payload equals the batch Compress payload, and a session's
// Replay report equals its Run report.
//
// # Checks
//
// Every run checks its outputs: each grid cell's reconstruction is within
// its bound and every model has finite metrics; each ingest job decodes
// within its bound (bit-exact for Gorilla) and repeats its payload in every
// round; each serve miss equals an in-process encode of the same values,
// each hit equals its miss byte for byte, decompressed lines parse back
// exactly, and hits + dedups + computations = requests; each monitor
// report has every point, tick, the injected drift and a model fit, and
// repeats across passes. The bound check follows the compress package's
// property test, |v − v̂| ≤ ε·|v|·(1+1e-9) + 1e-12 (absolute where v = 0): a
// check without the tolerance flags SWING and CAMEO at the last rounding
// digit on every dataset, and at ε = 0.4 on Solar index 7305, where v = 0
// decodes to 1.8e-15.
//
// # Repeatability
//
// Two sets of runs of one commit must agree within each end-to-end
// metric's bound. A metric that fails to repeat gets a longer run or more
// samples, not a wider bound.
package main

import (
	"os"

	"lossyts/internal/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
