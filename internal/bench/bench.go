// Package bench is the repository's benchmark: four workloads covering the
// grid, ingest, serve and monitor planes, each run in a fresh child
// process, timed from outside the layers they call, and checked for
// correct outputs. cmd/bench is its command; its package documentation is
// the metric dictionary.
package bench

// workload is one benchmark workload. run performs the set-up, calls
// c.ready (stopping there in a set-up-only child), then runs and checks
// the measured phase.
type workload struct {
	name string
	why  string
	run  func(c *child) error
}

// workloads is the benchmark's workload list, in run order. The why texts
// are repeated in BENCHMARK.json.
var workloads = []workload{
	{"grid", "the paper's compress x forecast grid: model fitting dominates and the codecs barely register", runGrid},
	{"ingest", "the edge upload scenario: six datasets through every stream codec, so only codec kernels and gzip work", runIngest},
	{"serve", "open-loop HTTP mix of store misses, store hits and decompressions: small-request overheads dominate", runServe},
	{"monitor", "online sessions with warm-start model updates and per-tick checkpoints: incremental forecasting", runMonitor},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
