package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcbfs"
	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/rng"
	"mcbfs/internal/stats"
)

// sampleRoots draws exactly want roots with non-zero degree,
// Graph500-style, cycling the distinct sample when the component
// structure offers fewer than requested (an earlier version silently
// ran fewer queries instead). The second return is the number of
// distinct roots sampled; zero distinct roots is the caller's error.
func sampleRoots(g *graph.Graph, want int, seed uint64) ([]graph.Vertex, int) {
	r := rng.New(seed ^ 0x5ea5c)
	roots := make([]graph.Vertex, 0, want)
	for attempts := 0; len(roots) < want && attempts < 100*want; attempts++ {
		v := graph.Vertex(r.Intn(g.NumVertices()))
		if g.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	distinct := len(roots)
	for i := 0; len(roots) < want && distinct > 0; i++ {
		roots = append(roots, roots[i%distinct])
	}
	return roots, distinct
}

// runSearches exercises the amortized-search-session path: one Searcher
// over one R-MAT graph, issuing many queries back to back. It reports
// the cold rate (first query, session setup charged to it), the warm
// distribution over the remaining queries, and end-to-end queries/sec —
// the figure of merit for repeated-search workloads (landmark tables,
// st-queries, K3-style neighbourhood extraction) as opposed to the
// single-search TEPS of the experiment tables.
// When batchWidth > 0, the same roots are then replayed through a
// BatchSearcher at that lane width, reporting batched queries/sec
// against the single-lane session — the MS-BFS amortization measured on
// identical work.
func runSearches(w io.Writer, cfg harnessConfig, searches, batchWidth int) error {
	if searches < 1 {
		return fmt.Errorf("searches %d must be >= 1", searches)
	}
	n := cfg.measuredN()
	g, err := measuredRMAT(log2(n), int64(n)*16, cfg.Seed)
	if err != nil {
		return err
	}

	roots, distinct := sampleRoots(g, searches, cfg.Seed)
	if distinct == 0 {
		return fmt.Errorf("no non-isolated roots at scale %d", log2(n))
	}
	if distinct < searches {
		fmt.Fprintf(w, "note: only %d distinct non-isolated roots sampled; cycling them to %d queries\n",
			distinct, searches)
	}

	rd, err := reorderFor(w, g, cfg)
	if err != nil {
		return err
	}

	setupStart := time.Now()
	s, err := core.NewSearcher(g, core.Options{Tracer: cfg.Tracer, Ordering: cfg.Order, Reordered: rd,
		EdgeBudget: cfg.EdgeBudget})
	if err != nil {
		return err
	}
	defer s.Close()
	setup := time.Since(setupStart)

	var (
		teps     []float64
		coldTEPS float64
		total    time.Duration
	)
	for i, root := range roots {
		res, err := s.BFS(root)
		if err != nil {
			return err
		}
		total += res.Duration
		teps = append(teps, res.EdgesPerSecond())
		if i == 0 {
			if d := setup + res.Duration; d > 0 {
				coldTEPS = float64(res.EdgesTraversed) / d.Seconds()
			}
		}
	}

	singleQPS := float64(len(roots)) / (setup + total).Seconds()
	fmt.Fprintf(w, "searches=%d scale=%d order=%s: %.1f queries/sec over one session (setup %v amortized)\n",
		len(roots), log2(n), cfg.Order, singleQPS, setup.Round(time.Microsecond))
	fmt.Fprintf(w, "  cold:  %s TEPS (query 0, session setup included)\n", stats.FormatRate(coldTEPS))
	if len(teps) > 1 {
		warm := teps[1:]
		fmt.Fprintf(w, "  warm:  %s harmonic-mean TEPS (min %s, median %s, max %s)\n",
			stats.FormatRate(stats.HarmonicMean(warm)),
			stats.FormatRate(stats.Quantile(warm, 0)),
			stats.FormatRate(stats.Quantile(warm, 0.5)),
			stats.FormatRate(stats.Quantile(warm, 1)))
	}
	if batchWidth > 0 {
		return runBatchedSearches(w, g, rd, roots, batchWidth, cfg, singleQPS)
	}
	return nil
}

// reorderFor relabels g under cfg.Order, printing the one-time cost on
// its own report line so it is never conflated with session setup or
// query time. Natural order returns (nil, nil) and prints nothing.
func reorderFor(w io.Writer, g *graph.Graph, cfg harnessConfig) (*graph.Reordered, error) {
	if cfg.Order == graph.OrderNatural {
		return nil, nil
	}
	rd, err := g.Reorder(cfg.Order)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "reorder: ordering %s in %v (perm %v + relabel %v, %d hub vertices holding %d edge slots)\n",
		cfg.Order, rd.ReorderTime().Round(time.Microsecond),
		rd.PermTime.Round(time.Microsecond), rd.RelabelTime.Round(time.Microsecond),
		rd.HubVertices, rd.HubEdges)
	return rd, nil
}

// runBatchedSearches replays roots through one MS-BFS session at the
// given lane width and prints batched throughput next to the
// single-lane session's queries/sec.
func runBatchedSearches(w io.Writer, g *graph.Graph, rd *graph.Reordered, roots []graph.Vertex, width int, cfg harnessConfig, singleQPS float64) error {
	if width > core.MaxLanes {
		width = core.MaxLanes
	}
	setupStart := time.Now()
	bs, err := core.NewBatchSearcher(g, core.BatchOptions{
		Width:     width,
		Telemetry: cfg.Telemetry,
		Ordering:  cfg.Order,
		Reordered: rd,
	})
	if err != nil {
		return err
	}
	defer bs.Close()
	elapsed := time.Since(setupStart)
	var laneEdges, scanned int64
	for off := 0; off < len(roots); off += width {
		chunk := roots[off:min(off+width, len(roots))]
		res, err := bs.Search(chunk)
		if err != nil {
			return err
		}
		elapsed += res.Duration
		scanned += res.EdgesScanned
		for l := range chunk {
			laneEdges += res.Edges[l]
		}
	}
	qps := float64(len(roots)) / elapsed.Seconds()
	amort := 1.0
	if scanned > 0 {
		amort = float64(laneEdges) / float64(scanned)
	}
	fmt.Fprintf(w, "  batch: width %d: %.1f queries/sec (%.2fx vs single-lane), %s aggregate TEPS, %.1fx edge-scan amortization\n",
		width, qps, qps/singleQPS, stats.FormatRate(float64(laneEdges)/elapsed.Seconds()), amort)
	return nil
}

// runClientSearches is the concurrent-serving benchmark: M client
// goroutines issue the same total number of queries against an
// mcbfs.Pool of warm Searchers, reporting end-to-end queries/sec and
// the query-latency distribution under contention — the serving-shape
// figure of merit, where admission waits and reset costs show up in
// tail latency rather than in single-search TEPS. Client-observed
// latency (admission wait included) goes into an obs.Histogram with one
// shard per client, so the measurement adds no cross-client contention
// and no per-query allocation — unlike the earlier version, which
// appended every latency to a slice and sorted the lot.
// When batchLanes > 0, the pool runs in batching mode: concurrently
// admitted queries coalesce (up to batchLanes of them per admission
// window) into shared MS-BFS traversals instead of each borrowing a
// Searcher.
// When churn > 0, a swapper goroutine hot-swaps that many freshly
// generated snapshots (same scale, different seeds) into the pool while
// the clients run, spaced across the workload — the reported latency
// distribution then covers queries served across live swaps, and the
// swap/drain counters are printed alongside the serving ones.
func runClientSearches(w io.Writer, cfg harnessConfig, searches, clients, poolSize, batchLanes int, batchWindow time.Duration, churn int) error {
	if searches < 1 {
		return fmt.Errorf("searches %d must be >= 1", searches)
	}
	if clients < 1 {
		return fmt.Errorf("clients %d must be >= 1", clients)
	}
	n := cfg.measuredN()
	g, err := measuredRMAT(log2(n), int64(n)*16, cfg.Seed)
	if err != nil {
		return err
	}
	roots, distinct := sampleRoots(g, searches, cfg.Seed)
	if distinct == 0 {
		return fmt.Errorf("no non-isolated roots at scale %d", log2(n))
	}

	if poolSize <= 0 {
		// Default: split the host's parallelism across a handful of
		// Searchers so clients actually contend for sessions.
		poolSize = runtime.GOMAXPROCS(0) / 2
		if poolSize < 1 {
			poolSize = 1
		}
		if poolSize > clients {
			poolSize = clients
		}
	}
	threads := runtime.GOMAXPROCS(0) / poolSize
	if threads < 1 {
		threads = 1
	}

	rd, err := reorderFor(w, g, cfg)
	if err != nil {
		return err
	}

	var serving obs.Metrics
	setupStart := time.Now()
	popt := mcbfs.PoolOptions{
		Size: poolSize,
		Search: mcbfs.Options{Threads: threads, Tracer: cfg.Tracer, Ordering: cfg.Order, Reordered: rd,
			EdgeBudget: cfg.EdgeBudget},
		Metrics:   &serving,
		Telemetry: cfg.Telemetry,
	}
	if batchLanes > 0 {
		popt.Batching = mcbfs.BatchingOptions{Lanes: batchLanes, Window: batchWindow}
	}
	pool, err := mcbfs.NewPool(g, popt)
	if err != nil {
		return err
	}
	defer pool.Close()
	setup := time.Since(setupStart)

	var (
		next     atomic.Int64
		done     atomic.Int64
		firstErr atomic.Value
		lat      = obs.NewHistogram(clients)
		wg       sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(roots)) {
					return
				}
				t0 := time.Now()
				if _, err := pool.Query(ctx, roots[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				lat.Record(c, time.Since(t0))
				done.Add(1)
			}
		}(c)
	}
	// Churn mode: swap fresh snapshots in while the clients run. Each
	// swap is held until the clients have worked through another even
	// share of the workload, so the latency distribution genuinely
	// interleaves queries with swaps rather than front-loading them.
	var swapErr error
	if churn > 0 {
		swapDone := make(chan struct{})
		go func() {
			defer close(swapDone)
			for s := 1; s <= churn; s++ {
				gate := int64(s) * int64(len(roots)) / int64(churn+1)
				for done.Load() < gate && next.Load() < int64(len(roots)) {
					if firstErr.Load() != nil {
						return // the clients died; don't spin on a stalled gate
					}
					time.Sleep(100 * time.Microsecond)
				}
				fresh, err := measuredRMAT(log2(n), int64(n)*16, cfg.Seed+uint64(s))
				if err != nil {
					swapErr = fmt.Errorf("generating churn snapshot %d: %w", s, err)
					return
				}
				if err := pool.Swap(fresh); err != nil {
					swapErr = fmt.Errorf("churn swap %d: %w", s, err)
					return
				}
			}
		}()
		<-swapDone
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	if swapErr != nil {
		return swapErr
	}

	snap := serving.Snapshot()
	dist := lat.Snapshot()
	fmt.Fprintf(w, "clients=%d pool=%d threads/searcher=%d scale=%d order=%s: %.1f queries/sec over %d queries (pool setup %v)\n",
		clients, poolSize, threads, log2(n), cfg.Order,
		float64(done.Load())/elapsed.Seconds(), done.Load(), setup.Round(time.Microsecond))
	fmt.Fprintf(w, "  latency: p50 %v  p90 %v  p99 %v  p99.9 %v  max %v\n",
		dist.Quantile(0.5).Round(time.Microsecond),
		dist.Quantile(0.9).Round(time.Microsecond),
		dist.Quantile(0.99).Round(time.Microsecond),
		dist.Quantile(0.999).Round(time.Microsecond),
		time.Duration(dist.MaxNs).Round(time.Microsecond))
	fmt.Fprintf(w, "  serving: cancelled=%d shed=%d recovered=%d\n",
		snap["cancelled"], snap["shed"], snap["recovered"])
	if churn > 0 {
		// Drains run asynchronously once the last borrower returns; give
		// them a moment so the report shows the settled state.
		for waited := time.Duration(0); pool.Draining() > 0 && waited < 2*time.Second; waited += 5 * time.Millisecond {
			time.Sleep(5 * time.Millisecond)
		}
		snap = serving.Snapshot()
		meanSwap := time.Duration(0)
		if snap["swaps"] > 0 {
			meanSwap = time.Duration(snap["swapNs"] / snap["swaps"])
		}
		fmt.Fprintf(w, "  churn: %d swaps (mean build+publish %v, degraded %d), epoch %d serving, %d snapshots drained, %d still draining\n",
			snap["swaps"], meanSwap.Round(time.Microsecond), snap["swapDegraded"],
			pool.Epoch(), snap["snapshotsDrained"], pool.Draining())
	}
	if batchLanes > 0 && snap["batchTraversals"] > 0 {
		meanWidth := float64(snap["batchLanes"]) / float64(snap["batchTraversals"])
		amort := 1.0
		if snap["batchEdges"] > 0 {
			amort = float64(snap["batchLaneEdges"]) / float64(snap["batchEdges"])
		}
		fmt.Fprintf(w, "  batching: %d traversals served %d queries (mean width %.1f of %d lanes, window %v, %.1fx edge-scan amortization)\n",
			snap["batchTraversals"], snap["batchLanes"], meanWidth, batchLanes, batchWindow, amort)
	}
	return nil
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	s := 0
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}
