// A monitored BFS serving process: a Pool of warm Searchers answering
// query traffic while exposing its serving telemetry over HTTP — the
// operational shape of the paper's "BFS as a building block for
// higher-level analysis" framing, where the search kernel runs as a
// long-lived service rather than a one-shot benchmark.
//
// PoolOptions.ServeMonitor starts an HTTP server alongside the pool:
//
//   - /metrics is Prometheus text format (scrape it, or curl it): the
//     query-latency histogram, per-outcome counters, pool occupancy,
//     and the per-level work totals the hub sums from every recorded
//     search (mcbfs_edges_total, …);
//   - /debug/bfs is a JSON status page: rolling 1s/10s/60s QPS and
//     error rates, latency quantiles, and the slowest recent queries —
//     captured with per-level phase breakdowns by the flight recorder,
//     so a pathological query arrives with its anatomy attached.
//
// The telemetry layer is lock-free on the query path (per-Searcher
// histogram shards, one short mutex hold for the flight ring) and a
// warm monitored query still performs zero heap allocations.
//
// Run with:
//
//	go run ./examples/monitoring
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"mcbfs"
)

func main() {
	g, err := mcbfs.RMATGraph(16, 1<<20, mcbfs.GTgraphDefaults, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:           2,
		Search:         mcbfs.Options{Threads: 2},
		DefaultTimeout: time.Second,
		ServeMonitor:   "127.0.0.1:0", // ":6060" for a fixed port
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	fmt.Printf("monitor: http://%s/metrics and http://%s/debug/bfs\n",
		pool.MonitorAddr(), pool.MonitorAddr())

	// Serve some query traffic so the telemetry has something to show.
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := pool.Query(ctx, mcbfs.Vertex(i*31%g.NumVertices())); err != nil {
			log.Fatal(err)
		}
	}

	// What an operator (or Prometheus) sees.
	curl := func(path string, maxLines int) {
		resp, err := http.Get("http://" + pool.MonitorAddr() + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n$ curl http://%s%s\n", pool.MonitorAddr(), path)
		lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
		for i, line := range lines {
			if i >= maxLines {
				fmt.Printf("... (%d more lines)\n", len(lines)-i)
				break
			}
			fmt.Println(line)
		}
	}
	curl("/metrics", 16)
	curl("/debug/bfs", 24)

	// The same numbers are available in-process, without HTTP.
	tel := pool.Telemetry()
	snap := tel.Histogram().Snapshot()
	fmt.Printf("\nin-process: %d queries, p50 %v, p99 %v, %0.1f qps (10s window)\n",
		snap.Count, snap.Quantile(0.5).Round(time.Microsecond),
		snap.Quantile(0.99).Round(time.Microsecond), tel.QPS(10*time.Second))
	if slow := tel.Flight().Slowest(1); len(slow) > 0 && slow[0].Captured {
		rec := slow[0]
		fmt.Printf("slowest query: root %d, %v over %d levels (per-level breakdown captured)\n",
			rec.Root, rec.Duration.Round(time.Microsecond), rec.Levels)
	}
}
