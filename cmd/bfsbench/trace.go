package main

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/stats"
	"mcbfs/internal/topology"
)

// errWriter wraps an io.Writer and remembers the first write error so
// a long run writing to a full disk fails loudly at the end instead of
// silently truncating its output.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// runTraced performs one fully observed BFS — the multi-socket
// algorithm on an R-MAT graph at the harness scale — and exports the
// requested sinks: a Chrome trace-event file (-trace) and a per-level
// phase breakdown table (-breakdown).
func runTraced(w io.Writer, cfg harnessConfig, tracePath string, breakdown bool) error {
	scale := cfg.Scale
	if cfg.Short && scale > 16 {
		scale = 16
	}
	g, err := measuredRMAT(scale, int64(8)<<scale, cfg.Seed)
	if err != nil {
		return err
	}
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2
	}
	if threads%2 != 0 {
		threads++
	}
	root := graph.Vertex(cfg.Seed % uint64(g.NumVertices()))
	res, err := core.BFS(g, root, core.Options{
		Algorithm:  core.AlgMultiSocket,
		Threads:    threads,
		Machine:    topology.Generic(2, threads/2, 1),
		Instrument: true,
		Trace:      true,
		Telemetry:  cfg.Telemetry,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "R-MAT scale=%d: %s vertices, %s edges\n",
		scale, stats.FormatCount(int64(g.NumVertices())), stats.FormatCount(g.NumEdges()))
	fmt.Fprintf(w, "algorithm: %v, %d threads on a 2-socket logical topology\n",
		res.Algorithm, res.Threads)
	fmt.Fprintf(w, "reached:   %d vertices in %d levels, %s\n",
		res.Reached, res.Levels, stats.FormatRate(res.EdgesPerSecond()))

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := res.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", tracePath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", tracePath, err)
		}
		fmt.Fprintf(w, "trace:     %s (open in ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}
	if breakdown {
		fmt.Fprintln(w)
		if err := res.Trace.WriteBreakdown(w); err != nil {
			return err
		}
	}
	return nil
}
