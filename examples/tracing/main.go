// Tracing: observe a parallel BFS through the observability sinks that
// all carry its one folded per-level record — the trace's level
// records, a telemetry hub's live Metrics, a Chrome trace-event file
// for Perfetto, and a per-level phase breakdown table.
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

	// A telemetry hub records every search it is attached to and sums
	// each one's per-level records into its Metrics, whose running
	// totals a monitoring endpoint could publish (Telemetry.Handler,
	// Metrics.Publish) while searches continue.
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})

	fmt.Println("running a traced multi-socket BFS:")
	res, err := mcbfs.BFS(g, 0, mcbfs.Options{
		Algorithm: mcbfs.AlgMultiSocket,
		Threads:   4,
		Machine:   mcbfs.GenericMachine(2, 2, 1),
		Trace:     true, // retain the full per-worker timeline in res.Trace
		Telemetry: tel,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sink 1: the level records. Each carries the level's folded
	// counters, phase times and the remote flushes the workers recorded
	// (Options.Instrument returns the same records in res.PerLevel).
	for _, b := range res.Trace.Levels {
		fmt.Printf("  level %d: frontier=%-7d edges=%-8d barrier-wait=%v\n",
			b.Level, b.Frontier, b.Edges,
			b.Phases[mcbfs.PhaseBarrierWait].Round(10*time.Microsecond))
	}
	fmt.Printf("reached %d vertices in %d levels at %s\n",
		res.Reached, res.Levels, mcbfs.FormatRate(res.EdgesPerSecond()))

	// Sink 2: the hub's Metrics, summed from the same records.
	m := tel.Metrics()
	fmt.Printf("live metrics: %d levels, %d edges, %d remote batches, %d tuples across sockets\n",
		m.LevelsDone.Load(), m.Edges.Load(), m.RemoteBatches.Load(), m.RemoteTuples.Load())

	// Sink 3: the Chrome trace-event file.
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

	// Sink 4: the per-level phase breakdown, the paper's figure-style
	// view of where each level's time went.
	fmt.Println()
	if err := res.Trace.WriteBreakdown(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
