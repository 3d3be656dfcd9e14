// Tracing: observe a parallel BFS with the three observability sinks —
// a custom Tracer hook, a Chrome trace-event file for Perfetto, and a
// per-level phase breakdown table.
//
// Run with:
//
//	go run ./examples/tracing
//
// Then open trace.json in https://ui.perfetto.dev (or chrome://tracing)
// to see one timeline track per worker with local-scan / queue-drain /
// barrier-wait spans for every BFS level.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"mcbfs"
)

func main() {
	// The paper's skewed workload: an R-MAT graph, scale 18 (262k
	// vertices, 2M edges) so the example finishes quickly anywhere.
	g, err := mcbfs.RMATGraph(18, 1<<21, mcbfs.GTgraphDefaults, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Sink 1: live Tracer hooks. OnLevelStart and OnLevelEnd fire at the
	// level barrier, one at a time, and OnLevelEnd carries the level's
	// folded record — counters, phase times and the remote flushes the
	// workers recorded. MultiTracer also feeds that record into a
	// Metrics set, whose running totals a monitoring endpoint could
	// publish while searches continue.
	var metrics mcbfs.Metrics
	hook := mcbfs.TracerFuncs{
		LevelEnd: func(level int, b mcbfs.LevelBreakdown) {
			fmt.Printf("  level %d: frontier=%-7d edges=%-8d barrier-wait=%v\n",
				level, b.Frontier, b.Edges,
				b.Phases[mcbfs.PhaseBarrierWait].Round(10*time.Microsecond))
		},
	}

	fmt.Println("running a traced multi-socket BFS:")
	res, err := mcbfs.BFS(g, 0, mcbfs.Options{
		Algorithm: mcbfs.AlgMultiSocket,
		Threads:   4,
		Machine:   mcbfs.GenericMachine(2, 2, 1),
		Trace:     true, // retain the full per-worker timeline in res.Trace
		Tracer:    mcbfs.MultiTracer(hook, metrics.Tracer()),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reached %d vertices in %d levels at %s\n",
		res.Reached, res.Levels, mcbfs.FormatRate(res.EdgesPerSecond()))
	fmt.Printf("live metrics: %d remote batches, %d tuples across sockets\n",
		metrics.RemoteBatches.Load(), metrics.RemoteTuples.Load())

	// Sink 2: the Chrome trace-event file.
	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Trace.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote trace.json — open it in https://ui.perfetto.dev")

	// Sink 3: the per-level phase breakdown, the paper's figure-style
	// view of where each level's time went.
	fmt.Println()
	if err := res.Trace.WriteBreakdown(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
