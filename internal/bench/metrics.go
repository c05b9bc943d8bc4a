package bench

import (
	"math"
	"sort"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/forecast"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's metric dictionary; BENCHMARK.json at the repository root
// mirrors them (TestBenchmarkJSONMatchesTables keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEndMetrics are measured with tracing off and reported by every
// workload. Each workload's operation is a grid cell, an ingest job, an
// HTTP request or a monitoring session; p50_ms and tail_ms summarise the
// latencies of those operations (see tail for the percentile rule).
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// codecLayers are the per-codec time shares the ingest workload attributes,
// in nanoseconds per point.
var codecLayers = []string{"push", "close", "gzip", "decode", "gunzip"}

// perLayerMetrics lists the metrics of a traced run, in report order. A
// workload that does not exercise a layer reports 0 for it. Stages, models
// and stream codecs come from the pipeline and the registries, so a new
// registration grows the list (and TestBenchmarkJSONMatchesTables points
// at BENCHMARK.json).
func perLayerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, st := range core.DefaultPipeline().StageNames() {
		add("core.stage."+st+"_s", "s", "lower")
	}
	add("core.idle_core_s", "s", "lower")
	add("core.units", "count", "higher")
	add("core.cell_evals", "count", "higher")
	for _, m := range forecast.ModelNames {
		add("forecast.fit."+m+"_s", "s", "lower")
	}
	for _, m := range forecast.ModelNames {
		add("forecast.predict."+m+"_s", "s", "lower")
	}
	for _, c := range compress.StreamingMethods() {
		for _, l := range codecLayers {
			add("compress."+string(c)+"."+l+"_ns_pt", "ns/pt", "lower")
		}
		add("compress."+string(c)+".payload_bytes_pt", "B/pt", "lower")
	}
	add("compress_mpts_s", "Mpts/s", "higher")
	add("decompress_mpts_s", "Mpts/s", "higher")
	add("datasets.load_s", "s", "lower")
	for _, o := range serveOutcomes {
		add("serve."+o+".p50_ms", "ms", "lower")
		add("serve."+o+".p99_ms", "ms", "lower")
	}
	add("serve.late_p99_ms", "ms", "lower")
	add("serve.max_rps", "1/s", "higher")
	for ri := range serveRates {
		if ri != serveRef {
			add(rateName(ri)+".p50_ms", "ms", "lower")
			add(rateName(ri)+".p99_ms", "ms", "lower")
		}
	}
	add("core.workexec.hits", "count", "higher")
	add("core.workexec.dedups", "count", "higher")
	add("core.workexec.computations", "count", "lower")
	add("cellstore.bytes_per_write", "B", "lower")
	add("compress.ms_per_miss", "ms", "lower")
	add("points_per_s", "1/s", "higher")
	add("core.session.p50_s", "s", "lower")
	add("core.session.ticks", "count", "higher")
	add("forecast.updates", "count", "higher")
	add("cellstore.bytes_per_tick", "B", "lower")
	add("core.session.nomodel_points_per_s", "1/s", "higher")
	add("bench.trace_overhead", "ratio", "lower")
	return out
}

// minBeyond is how many samples must lie past a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending values.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// tail returns the highest percentile, capped at p99, that has at least
// minBeyond samples above it, together with that percentile as a fraction.
// With minBeyond or fewer samples no percentile qualifies; the maximum is
// returned and the fraction is 1.
func tail(sorted []float64) (v, q float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return sorted[n-1], 1
	}
	rank := min(int(math.Ceil(0.99*float64(n))), n-minBeyond)
	return sorted[rank-1], float64(rank) / float64(n)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }
