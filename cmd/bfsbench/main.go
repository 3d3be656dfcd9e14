// Command bfsbench regenerates the tables and figures of the SC'10
// paper "Scalable Graph Exploration on Multicore Processors".
//
// Each experiment prints the same rows/series the paper reports, from
// two sources:
//
//   - simulated: the calibrated Nehalem machine model run at the
//     paper's full scale (up to 200M vertices / 1B edges);
//   - measured: the real concurrent library run on this host at a
//     host-appropriate scale (the paper's testbed had 64 hardware
//     threads and 256 GB of memory; this host typically does not).
//
// Usage:
//
//	bfsbench -experiment fig6a            # one experiment
//	bfsbench -experiment all              # everything
//	bfsbench -experiment fig8b -mode sim  # simulated only
//	bfsbench -list                        # list experiment ids
//	bfsbench -trace out.json -breakdown   # one traced BFS, Chrome trace + phase table
//	bfsbench -experiment all -pprof :6060 # live pprof/expvar while experiments run
//
// Repeated-search and serving measurements live elsewhere: graph500
// reports cold vs warm session rates (and -batch replays the roots
// through MS-BFS), and the perfbench module measures Pool serving,
// batching and live updates.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-reproduced results.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strings"

	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

func main() {
	var (
		expID     = flag.String("experiment", "", "experiment id (fig2..fig10, table1..table3, all)")
		mode      = flag.String("mode", "both", "sim | measured | both")
		scale     = flag.Int("scale", 20, "log2 of the vertex count for measured runs")
		seed      = flag.Uint64("seed", 42, "workload seed for measured runs")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		short     = flag.Bool("short", false, "shrink measured runs (CI-friendly)")
		traceOut  = flag.String("trace", "", "run one traced BFS and write a Chrome trace-event JSON file (view in Perfetto)")
		breakdown = flag.Bool("breakdown", false, "run one traced BFS and print its per-level phase breakdown")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and live expvar counters on this address (e.g. :6060)")
		outPath   = flag.String("o", "", "write output to this file instead of stdout")
		buildPar  = flag.Int("build-threads", 0, "CSR construction worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *buildPar > 0 {
		graph.SetBuildParallelism(*buildPar)
	}

	cfg := harnessConfig{
		Mode:  *mode,
		Scale: *scale,
		Seed:  *seed,
		Short: *short,
	}
	if cfg.Mode != "sim" && cfg.Mode != "measured" && cfg.Mode != "both" {
		fmt.Fprintf(os.Stderr, "bfsbench: unknown mode %q\n", cfg.Mode)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// Live observability for long runs: every measured BFS reports
		// into a telemetry hub that counts into a process-wide
		// obs.Metrics published under /debug/vars, and the default mux
		// already carries /debug/pprof via the blank import.
		var live obs.Metrics
		live.Publish("mcbfs")
		cfg.Telemetry = obs.NewTelemetry(obs.TelemetryOptions{Metrics: &live})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "bfsbench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "bfsbench: pprof at http://%s/debug/pprof, expvar at /debug/vars\n",
			*pprofAddr)
	}

	if *list {
		ids := make([]string, 0, len(experiments))
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("%-8s %s\n", id, experiments[id].title)
		}
		return
	}

	traceMode := *traceOut != "" || *breakdown
	if *expID == "" && !traceMode {
		flag.Usage()
		os.Exit(2)
	}

	// All report output goes through an error-checked writer so that a
	// full disk (or a broken pipe on -o) fails loudly.
	out := &errWriter{w: os.Stdout}
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: %v\n", err)
			os.Exit(1)
		}
		outFile = f
		out.w = f
	}
	fatal := func(format string, args ...any) {
		if outFile != nil {
			outFile.Close()
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	if traceMode {
		if err := runTraced(out, cfg, *traceOut, *breakdown); err != nil {
			fatal("bfsbench: trace: %v\n", err)
		}
	}

	if *expID != "" {
		var ids []string
		if *expID == "all" {
			for id := range experiments {
				ids = append(ids, id)
			}
			sort.Strings(ids)
		} else {
			for _, id := range strings.Split(*expID, ",") {
				id = strings.TrimSpace(id)
				if _, ok := experiments[id]; !ok {
					fatal("bfsbench: unknown experiment %q (use -list)\n", id)
				}
				ids = append(ids, id)
			}
		}

		for _, id := range ids {
			e := experiments[id]
			fmt.Fprintf(out, "== %s — %s ==\n", id, e.title)
			if err := e.run(out, cfg); err != nil {
				fatal("bfsbench: %s: %v\n", id, err)
			}
			fmt.Fprintln(out)
		}
	}

	if out.err != nil {
		fatal("bfsbench: writing output: %v\n", out.err)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: %v\n", err)
			os.Exit(1)
		}
	}
}
