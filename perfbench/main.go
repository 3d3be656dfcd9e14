// Command perfbench is the repository's benchmark. It drives the mcbfs
// library from outside, through its public API only, and prints every
// metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload kernel-s18 --seed 1 --seconds 30 --trace 0
//
// The benchmark generates its own inputs from --seed (an R-MAT sampler
// with the Graph500 parameters, a seeded vertex permutation, roots and
// ingest batches), keeps a private sorted CSR of every graph, and checks
// every answer against its own serial reference BFS over that CSR. A
// wrong answer, an invalid tree or an error fails the operation, and a
// run with a failed operation exits 1.
//
// # Workloads
//
// All run in one process with GOMAXPROCS = nproc, and no configuration
// runs more than two worker threads.
//
//   - kernel-s18: the Graph500 kernel. R-MAT scale 18, edge factor 16,
//     undirected (262,144 vertices, 8.39M adjacency entries, 32 MiB of
//     targets: far beyond a core's L2, the paper's memory-bound regime).
//     One warm session per configuration: sequential (1 thread);
//     parallel-simple, single-socket, multi-socket (2 logical sockets x
//     1) and direction-optimizing (Transpose = the graph), 2 threads
//     each; and a 2-thread 64-lane BatchSearcher (msbfs-64). Each round
//     draws a root, runs the reference BFS from it and the two-core
//     probe, then the five tiers in rotating order; every eighth round
//     runs one MS-BFS batch over the 64 most recent roots. Pool, reorder
//     and telemetry are bypassed.
//   - khop-s18: 2-hop neighbourhood serving under live updates. Same
//     graph family, own seed, dbg-reordered and handed to
//     Pool{Size 2, Search{Threads 1, MaxLevels 2}} with a Telemetry hub
//     and Metrics attached. Two closed-loop callers each call
//     Pool.Search and wait; every 64th call is a QueryFunc whose full
//     tree is validated. Every second slice a writer Ingests edges among
//     fresh vertex ids and Rebuilds, so every old root's answer stays
//     exact; /metrics is rendered in-process every 100 ms. Per-query
//     fixed costs (admission, O(touched) reset, id translation,
//     telemetry) carry much of the latency.
//   - batch-s16: batched serving. R-MAT scale 16 (65,536 vertices, 2.1M
//     adjacency entries), natural order, Pool batching mode (64 lanes, 1
//     runner, 2 threads, default window) with telemetry; 16 closed-loop
//     callers issue full-depth Pool.Query. The MS-BFS traversal and the
//     admission window at partial width do the work.
//
// Serving workloads run in one-second slices; between slices the callers
// pause and the probes run alone.
//
// # Probes
//
// The frozen probe is the benchmark's own reference BFS over its private
// CSR; it never touches the program. The one-core probe is one search at
// a time (in kernel-s18, the per-root reference run that validation
// needs anyway); the two-core probe runs two searches from different
// roots at once. Both are spread through the timed phase, and the
// two-core probe is also sampled between set-ups. On a shared 2-vCPU VM the host's speed drifts over
// minutes, and runs of identical code differed by up to 50% in raw
// throughput; rescaling by the two-core probe narrowed the run-to-run
// spread of the timed end-to-end metrics more, overall, than rescaling
// by the one-core probe or not at all.
//
// # End-to-end metrics (--trace 0), on every workload
//
//	setup_s         s          program set-up: NewGraphFromArrays ->
//	                           Undirected (-> Reorder on khop) ->
//	                           sessions or Pool, each on a heap returned
//	                           to the OS as in a fresh process; median of
//	                           at least 5 set-ups (more, up to 1 s of
//	                           them) per run
//	peak_rss_mb     MiB        process peak RSS (getrusage)
//	teps            edges/s    sum(m_a) / sum(search wall time); kernel:
//	                           geometric mean over the six configurations,
//	                           serving: of answered queries over serving
//	                           wall time
//	qps             queries/s  roots answered per second; kernel: geometric
//	                           mean over the configurations of roots per
//	                           second of search time (a batch answers one
//	                           root per lane); serving: of serving wall
//	                           time
//	latency_p50_ms  ms         caller-observed time of one call; kernel:
//	latency_p99_ms  ms         geometric mean over the five tiers of each
//	                           tier's percentile of Searcher.Search time;
//	                           serving: Pool.Search / Pool.Query; a failed
//	                           call counts as +Inf
//
// m_a is the adjacency entries of the vertices the reference BFS
// expands, counted by the benchmark, never read from the program.
// Each metric but peak_rss_mb is rescaled: a rate is multiplied, and a
// time divided, by (reference two-core probe rate / this run's), using
// the probe sampled between set-ups for setup_s and the one of the timed
// phase for the rest. The uncorrected values are printed beside them and
// reported as raw.<name> by the traced run.
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures the first half of the timed phase untraced and
// the second half traced: spans around every call into a layer (and the
// program-reported durations as child spans), Options.Instrument on the
// kernel sessions. Spans are written as a Chrome trace under
// <out>/traces. A metric a workload does not exercise reads 0.
//
//	layer          metric                          moves
//	internal/graph graph.build_s, graph.undirected_s  setup_s
//	               graph.reorder_s (khop)          setup_s, pool.rebuild_ms
//	               graph.bytes_per_edge            teps, peak_rss_mb
//	internal/core  core.new_searcher_ms.<tier>,    setup_s (kernel)
//	               core.new_batch_ms
//	               core.teps.<config>              teps (kernel)
//	               core.scanned_per_edge.<tier>    core.teps.<tier>
//	               core.atomic_ops_per_edge.<tier>,
//	               core.bitmap_reads_per_edge.<tier>,
//	               core.remote_sends_per_edge.multi-socket,
//	               core.steals.multi-socket,
//	               core.imbalance.<tier>           core.teps.<tier>
//	               core.batch_amortization         core.teps.msbfs-64
//	               core.allocs_per_query           latency_p99_ms
//	               core.validate_ms                none yet
//	mcbfs Pool     pool.new_ms                     setup_s (khop, batch)
//	               pool.overhead_us                latency_p50_ms, qps
//	               pool.batch_width,
//	               pool.batch_amortization         qps (batch)
//	               pool.ingest_us, pool.rebuild_ms latency_p99_ms (khop)
//	               pool.draining_max               peak_rss_mb (khop)
//	internal/obs   obs.scrape_ms                   latency_p99_ms (khop)
//	Go runtime     runtime.gc_cycles               latency_p99_ms
//	host           probe.teps, probe.teps_2core,   diagnostic
//	               host.steal_frac,
//	               raw.<metric>, trace.overhead_frac,
//	               self_frac.<layer>
//
// pool.rebuild_ms (Ingest + Rebuild wall time, how long until new edges
// are visible) and the per-configuration TEPS are per-layer because the
// end-to-end metrics must exist on every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// run is one invocation's settings.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	out      string
	tr       *tracer // nil in untraced runs
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	errs              []string
	setup             []float64 // seconds per complete set-up
	teps, qps         float64   // raw
	p50ms, p99ms      float64   // raw
	probe, pair       probe     // one-core and two-core probes over the timed phase
	setupPair         probe     // the two-core probe between set-ups
	layer             map[string]float64
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// fail counts a failed operation and keeps the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err.Error())
	}
}

// Every run times complete set-ups, at least minSetups of them and more
// until setupBudget of set-up time is measured (at most maxSetups);
// setup_s is their median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 1.0 // seconds
)

// moreSetups reports whether another set-up should be timed.
func moreSetups(done []float64) bool {
	sum := 0.0
	for _, s := range done {
		sum += s
	}
	return len(done) < minSetups || (sum < setupBudget && len(done) < maxSetups)
}

var workloads = map[string]func(*run) (*outcome, error){
	"kernel-s18": runKernel,
	"khop-s18":   runKhop,
	"batch-s16":  runBatch,
}

// probeRef is the reference two-core probe rate per workload (edges/s
// of two concurrent reference searches on that workload's graph), the
// median over five seeds on a 2-vCPU x86-64 VM. Rescaled metrics are
// expressed at this host speed; the constant cancels when two runs are
// compared.
var probeRef = map[string]float64{
	"kernel-s18": 510e6,
	"khop-s18":   540e6,
	"batch-s16":  630e6,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type scaling int

const (
	unscaled scaling = iota
	rate             // higher is better: multiplied by reference / probe rate
	duration         // lower is better: divided by reference / probe rate
)

// e2eDef is one end-to-end metric: BENCHMARK.json gates the rescaled
// form under the bare name; raw.<name> is the uncorrected value.
type e2eDef struct {
	name, unit string
	scale      scaling
}

var e2eDefs = []e2eDef{
	{"setup_s", "s", duration},
	{"peak_rss_mb", "MiB", unscaled},
	{"teps", "edges/s", rate},
	{"qps", "queries/s", rate},
	{"latency_p50_ms", "ms", duration},
	{"latency_p99_ms", "ms", duration},
}

// layerUnits lists every per-layer metric and its unit, in print order.
var layerUnits = buildLayerUnits()

var (
	tiers       = []string{"sequential", "parallel-simple", "single-socket", "multi-socket", "direction-optimizing"}
	parTiers    = tiers[1:]
	bitmapTiers = []string{"single-socket", "multi-socket", "direction-optimizing"}
	layers      = []string{"graph", "core", "pool", "obs", "bench"}
)

func buildLayerUnits() [][2]string {
	u := [][2]string{
		{"graph.build_s", "s"}, {"graph.undirected_s", "s"}, {"graph.reorder_s", "s"},
		{"graph.bytes_per_edge", "B/edge"},
	}
	for _, t := range tiers {
		u = append(u, [2]string{"core.new_searcher_ms." + t, "ms"})
	}
	u = append(u, [2]string{"core.new_batch_ms", "ms"})
	for _, t := range append(append([]string{}, tiers...), "msbfs-64") {
		u = append(u, [2]string{"core.teps." + t, "edges/s"})
	}
	for _, t := range tiers {
		u = append(u, [2]string{"core.scanned_per_edge." + t, "ratio"})
	}
	for _, t := range parTiers {
		u = append(u, [2]string{"core.atomic_ops_per_edge." + t, "ratio"})
	}
	for _, t := range bitmapTiers {
		u = append(u, [2]string{"core.bitmap_reads_per_edge." + t, "ratio"})
	}
	u = append(u, [2]string{"core.remote_sends_per_edge.multi-socket", "ratio"},
		[2]string{"core.steals.multi-socket", "count"})
	for _, t := range parTiers {
		u = append(u, [2]string{"core.imbalance." + t, "ratio"})
	}
	u = append(u,
		[2]string{"core.batch_amortization", "ratio"},
		[2]string{"core.allocs_per_query", "count"},
		[2]string{"core.validate_ms", "ms"},
		[2]string{"pool.new_ms", "ms"},
		[2]string{"pool.overhead_us", "us"},
		[2]string{"pool.batch_width", "lanes"},
		[2]string{"pool.batch_amortization", "ratio"},
		[2]string{"pool.ingest_us", "us"},
		[2]string{"pool.rebuild_ms", "ms"},
		[2]string{"pool.draining_max", "count"},
		[2]string{"obs.scrape_ms", "ms"},
		[2]string{"runtime.gc_cycles", "count"},
		[2]string{"probe.teps", "edges/s"},
		[2]string{"probe.teps_2core", "edges/s"},
		[2]string{"host.steal_frac", "ratio"},
	)
	for _, d := range e2eDefs {
		if d.scale != unscaled {
			u = append(u, [2]string{"raw." + d.name, d.unit})
		}
	}
	u = append(u, [2]string{"trace.overhead_frac", "ratio"})
	for _, l := range layers {
		u = append(u, [2]string{"self_frac." + l, "ratio"})
	}
	return u
}

// e2eValues returns every end-to-end metric in raw and rescaled form.
// setup_s is rescaled by the two-core probe taken between set-ups, the
// rest by the one of the timed phase.
func e2eValues(workload string, o *outcome) (raw, scaled map[string]float64) {
	raw = map[string]float64{
		"setup_s":        median(append([]float64(nil), o.setup...)),
		"peak_rss_mb":    peakRSSMiB(),
		"teps":           o.teps,
		"qps":            o.qps,
		"latency_p50_ms": o.p50ms,
		"latency_p99_ms": o.p99ms,
	}
	scaled = map[string]float64{}
	for _, d := range e2eDefs {
		pr := o.pair
		if d.name == "setup_s" {
			pr = o.setupPair
		}
		k := probeRef[workload] / pr.rate()
		switch d.scale {
		case rate:
			scaled[d.name] = raw[d.name] * k
		case duration:
			scaled[d.name] = raw[d.name] / k
		default:
			scaled[d.name] = raw[d.name]
		}
	}
	return raw, scaled
}

func main() {
	workload := flag.String("workload", "", "workload to run: kernel-s18, khop-s18 or batch-s16")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload {kernel-s18|khop-s18|batch-s16} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	if r.traced {
		r.tr = newTracer()
	}
	o, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", e)
	}
	raw, scaled := e2eValues(r.workload, o)
	metrics := map[string]metric{}
	fmt.Printf("workload %s seed %d: %d operations, %d failed\n", r.workload, r.seed, o.attempted, o.failed)
	fmt.Printf("  probes (edges/s): timed %.6g one-core %.6g two-core; set-up %.6g two-core\n",
		o.probe.rate(), o.pair.rate(), o.setupPair.rate())
	for _, d := range e2eDefs {
		fmt.Printf("  %-22s %14.6g %-9s raw %14.6g\n", d.name, scaled[d.name], d.unit, raw[d.name])
		if !r.traced {
			metrics[d.name] = metric{finite(scaled[d.name]), d.unit}
		}
	}
	if r.traced {
		for _, d := range e2eDefs {
			if d.scale != unscaled {
				o.layer["raw."+d.name] = raw[d.name]
			}
		}
		o.layer["probe.teps"] = o.probe.rate()
		o.layer["probe.teps_2core"] = o.pair.rate()
		for _, lu := range layerUnits {
			v := finite(o.layer[lu[0]])
			metrics[lu[0]] = metric{v, lu[1]}
			fmt.Printf("  %-42s %14.6g %s\n", lu[0], v, lu[1])
		}
		path := filepath.Join(r.out, "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  spans written to %s\n", path)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		os.Exit(1)
	}
}

// finite maps the NaN or infinity of a metric with no samples, or of a
// run whose operations failed, to 0 so that the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
