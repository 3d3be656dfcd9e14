// Command graph500 runs the Graph500-style BFS benchmark protocol:
// generate a Kronecker graph, BFS from sampled roots, validate every
// tree, report harmonic-mean TEPS.
//
// Usage:
//
//	graph500 -scale 20 -edgefactor 16 -roots 64 -threads 8
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/graph500"
	"mcbfs/internal/obs"
	"mcbfs/internal/stats"
)

func main() {
	var (
		scale      = flag.Int("scale", 18, "log2 of the vertex count")
		edgefactor = flag.Int("edgefactor", 16, "edges per vertex")
		roots      = flag.Int("roots", 64, "number of BFS roots")
		threads    = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 2010, "generator seed")
		skipVal    = flag.Bool("skip-validation", false, "skip per-root tree validation")
		deadline   = flag.Duration("deadline", 0, "per-root search deadline; roots exceeding it are abandoned and reported, not failed (0 = none)")
		batch      = flag.Bool("batch", false, "also replay the sampled roots through one MS-BFS session, 64 lanes per shared traversal, and report batched vs per-query TEPS")
		order      = flag.String("order", "natural", "vertex ordering applied before the search phase: natural, degree, dbg (degree-grouped hubs), rcm (BFS levels); reorder time is reported separately")
		pprofAddr  = flag.String("pprof", "", "serve live telemetry on this address while the protocol runs: /metrics (Prometheus), /debug/bfs (status), /debug/vars (expvar incl. timed-out roots), /debug/pprof")
		verbose    = flag.Bool("v", false, "print per-root TEPS")
	)
	flag.Parse()

	// Construction uses the same worker budget as the search: the
	// parallel counting-sort CSR builder honours this knob.
	if *threads > 0 {
		graph.SetBuildParallelism(*threads)
	}

	ordering, err := graph.ParseOrdering(*order)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graph500: %v\n", err)
		os.Exit(2)
	}

	spec := graph500.Spec{
		Scale:          *scale,
		EdgeFactor:     *edgefactor,
		Roots:          *roots,
		Seed:           *seed,
		Options:        core.Options{Threads: *threads, Ordering: ordering},
		SkipValidation: *skipVal,
		SearchTimeout:  *deadline,
		Batch:          *batch,
	}
	if *pprofAddr != "" {
		// Long protocol runs are watchable live: every root's search
		// reports into a telemetry hub served at /metrics and
		// /debug/bfs, which counts its per-level totals into an
		// expvar-published Metrics (timed-out roots included, not just
		// the stdout summary at the end).
		live := &obs.Metrics{}
		live.Publish("graph500")
		tel := obs.NewTelemetry(obs.TelemetryOptions{Shards: 1, Metrics: live})
		spec.Metrics = live
		spec.Options.Telemetry = tel
		http.Handle("/metrics", tel.MetricsHandler())
		http.Handle("/debug/bfs", tel.StatusHandler())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "graph500: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "graph500: telemetry at http://%s/metrics and /debug/bfs, expvar at /debug/vars, pprof at /debug/pprof\n",
			*pprofAddr)
	}
	res, err := graph500.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graph500: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if res.WarmHarmonicMeanTEPS > 0 {
		fmt.Printf("session: cold %s TEPS (root 0, includes session setup), warm %s harmonic-mean TEPS (roots 1..%d, pooled state reused)\n",
			stats.FormatRate(res.ColdTEPS), stats.FormatRate(res.WarmHarmonicMeanTEPS), res.RootsRun-1)
	}
	if res.BatchDuration > 0 {
		fmt.Printf("batched: %s aggregate TEPS, %.1f queries/s over %d roots in %v (%.1fx edge-scan amortization vs one search per root)\n",
			stats.FormatRate(res.BatchTEPS), res.BatchQueriesPerSec, res.BatchRootsRun,
			res.BatchDuration.Round(time.Millisecond), res.BatchAmortization)
	}
	fmt.Printf("graph: %d vertices, %d directed edge slots, mean reach %.0f vertices/root\n",
		res.Vertices, res.Edges, res.MeanReached)
	fmt.Printf("construction: %v total = generate %v + build csr %v (%s edge slots/s, %d-way build)\n",
		res.ConstructionTime, res.GenerationTime, res.BuildTime,
		stats.FormatCount(int64(res.ConstructionEPS())), graph.BuildParallelism())
	if res.Ordering != graph.OrderNatural {
		fmt.Printf("reorder: %v for ordering %s (one-time, amortized across %d roots)\n",
			res.ReorderTime, res.Ordering, res.RootsRun)
	}
	if *verbose {
		for i, teps := range res.TEPS {
			fmt.Printf("  root %2d: %s\n", i, stats.FormatRate(teps))
		}
	}
}
