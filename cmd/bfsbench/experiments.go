package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/machine"
	"mcbfs/internal/obs"
	"mcbfs/internal/refdata"
	"mcbfs/internal/simbfs"
	"mcbfs/internal/stats"
	"mcbfs/internal/topology"
)

type harnessConfig struct {
	Mode      string // sim | measured | both
	Scale     int    // log2 vertices for measured runs
	Seed      uint64
	Short     bool
	Telemetry *obs.Telemetry // records every measured library run (nil = off)
}

func (c harnessConfig) sim() bool      { return c.Mode == "sim" || c.Mode == "both" }
func (c harnessConfig) measured() bool { return c.Mode == "measured" || c.Mode == "both" }

func (c harnessConfig) measuredN() int {
	s := c.Scale
	if c.Short && s > 16 {
		s = 16
	}
	return 1 << s
}

type experiment struct {
	title string
	run   func(w io.Writer, cfg harnessConfig) error
}

var experiments = map[string]experiment{
	"fig2":   {"memory pipelining: random-read rate vs working set and in-flight depth", runFig2},
	"fig3":   {"atomic fetch-and-add rate vs threads, 4 MB shared buffer", runFig3},
	"fig4":   {"bitmap accesses vs atomic operations per BFS level", runFig4},
	"fig5":   {"impact of the optimizations (algorithm variants) vs threads, Nehalem EP", runFig5},
	"fig6a":  {"uniformly random graphs, Nehalem EP: processing rates", figRates(simbfs.Uniform, machine.EP())},
	"fig6b":  {"uniformly random graphs, Nehalem EP: scalability", figSpeedup(simbfs.Uniform, machine.EP())},
	"fig6c":  {"uniformly random graphs, Nehalem EP: sensitivity to graph size", figSize(simbfs.Uniform, machine.EP())},
	"fig7a":  {"R-MAT graphs, Nehalem EP: processing rates", figRates(simbfs.RMAT, machine.EP())},
	"fig7b":  {"R-MAT graphs, Nehalem EP: scalability", figSpeedup(simbfs.RMAT, machine.EP())},
	"fig7c":  {"R-MAT graphs, Nehalem EP: sensitivity to graph size", figSize(simbfs.RMAT, machine.EP())},
	"fig8a":  {"uniformly random graphs, Nehalem EX: processing rates", figRates(simbfs.Uniform, machine.EX())},
	"fig8b":  {"uniformly random graphs, Nehalem EX: scalability", figSpeedup(simbfs.Uniform, machine.EX())},
	"fig8c":  {"uniformly random graphs, Nehalem EX: sensitivity to graph size", figSize(simbfs.Uniform, machine.EX())},
	"fig9a":  {"R-MAT graphs, Nehalem EX: processing rates", figRates(simbfs.RMAT, machine.EX())},
	"fig9b":  {"R-MAT graphs, Nehalem EX: scalability", figSpeedup(simbfs.RMAT, machine.EX())},
	"fig9c":  {"R-MAT graphs, Nehalem EX: sensitivity to graph size", figSize(simbfs.RMAT, machine.EX())},
	"fig10":  {"SSCA#2-style throughput: one BFS per socket, Nehalem EX", runFig10},
	"table1": {"system configuration (Table I)", runTable1},
	"table2": {"systems compared in the literature (Table II)", runTable2},
	"table3": {"comparison with published results (Table III)", runTable3},
	"ext-hybrid": {"extension: direction-optimizing BFS vs the paper's top-down (post-paper)",
		runExtHybrid},
}

// measuredThreads returns the thread sweep used for measured runs.
func measuredThreads(cfg harnessConfig) []int {
	if cfg.Short {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16}
}

// graphCache avoids regenerating identical measured graphs within one
// invocation.
var graphCache = map[string]*graph.Graph{}

// reportConstruction notes every fresh measured-graph build on stderr —
// construction time reported separately from the search rates in the
// experiment tables, without disturbing -o report output.
func reportConstruction(what string, g *graph.Graph, d time.Duration) {
	rate := 0.0
	if s := d.Seconds(); s > 0 {
		rate = float64(g.NumEdges()) / s
	}
	fmt.Fprintf(os.Stderr, "bfsbench: constructed %s (%s vertices, %s edges) in %v — %s construction, %d-way build\n",
		what, stats.FormatCount(int64(g.NumVertices())), stats.FormatCount(g.NumEdges()),
		d.Round(time.Millisecond), stats.FormatRate(rate), graph.BuildParallelism())
}

func measuredUniform(n, d int, seed uint64) (*graph.Graph, error) {
	key := fmt.Sprintf("u/%d/%d/%d", n, d, seed)
	if g, ok := graphCache[key]; ok {
		return g, nil
	}
	start := time.Now()
	g, err := gen.Uniform(n, d, seed)
	if err == nil {
		reportConstruction(fmt.Sprintf("uniform d=%d", d), g, time.Since(start))
		graphCache[key] = g
	}
	return g, err
}

func measuredRMAT(scale int, m int64, seed uint64) (*graph.Graph, error) {
	key := fmt.Sprintf("r/%d/%d/%d", scale, m, seed)
	if g, ok := graphCache[key]; ok {
		return g, nil
	}
	start := time.Now()
	g, err := gen.RMAT(scale, m, gen.GTgraphDefaults, seed)
	if err == nil {
		reportConstruction(fmt.Sprintf("rmat scale=%d", scale), g, time.Since(start))
		graphCache[key] = g
	}
	return g, err
}

// bestBFS runs the library with the paper's per-thread-count algorithm
// choice on a logical EP topology and returns the rate.
func bestBFS(g *graph.Graph, threads int, cfg harnessConfig) (float64, error) {
	res, err := core.BFS(g, graph.Vertex(cfg.Seed%uint64(g.NumVertices())), core.Options{
		Threads:   threads,
		Machine:   topology.NehalemEP,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return 0, err
	}
	return res.EdgesPerSecond(), nil
}

// --- Fig. 2 ---

func runFig2(w io.Writer, cfg harnessConfig) error {
	depths := []int{1, 2, 4, 8, 16}
	sizes := []int64{4 << 10, 32 << 10, 256 << 10, 1 << 20, 8 << 20, 64 << 20, 512 << 20, 2 << 30, 8 << 30}
	if cfg.sim() {
		fmt.Fprintln(w, "-- simulated (Nehalem EP model), million reads/s per core --")
		fmt.Fprintf(w, "%-10s", "ws")
		for _, d := range depths {
			fmt.Fprintf(w, "  depth=%-3d", d)
		}
		fmt.Fprintln(w)
		ep := machine.EP()
		for _, ws := range sizes {
			fmt.Fprintf(w, "%-10s", stats.FormatCount(ws))
			for _, d := range depths {
				fmt.Fprintf(w, "  %-9.1f", ep.RandomReadRate(ws, d)/1e6)
			}
			fmt.Fprintf(w, "  [%s]\n", ep.LevelOf(ws))
		}
	}
	if cfg.measured() {
		dur := 120 * time.Millisecond
		msizes := []int64{4 << 10, 256 << 10, 8 << 20, 64 << 20, 256 << 20}
		if cfg.Short {
			msizes = msizes[:4]
			dur = 40 * time.Millisecond
		}
		fmt.Fprintln(w, "-- measured on this host, million reads/s per core --")
		fmt.Fprintf(w, "%-10s", "ws")
		for _, d := range depths {
			fmt.Fprintf(w, "  depth=%-3d", d)
		}
		fmt.Fprintln(w)
		for _, ws := range msizes {
			fmt.Fprintf(w, "%-10s", stats.FormatCount(ws))
			for _, d := range depths {
				fmt.Fprintf(w, "  %-9.1f", machine.MeasureRandomReadRate(ws, d, dur)/1e6)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// --- Fig. 3 ---

func runFig3(w io.Writer, cfg harnessConfig) error {
	const ws = 4 << 20
	threads := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.sim() {
		fmt.Fprintln(w, "-- simulated (Nehalem EP model, threads fill socket 0 then socket 1) --")
		fmt.Fprintln(w, "threads  Mops/s   sockets")
		ep := machine.EP()
		for _, t := range threads {
			fmt.Fprintf(w, "%-8d %-8.1f %d\n", t, ep.FetchAddRate(ws, t)/1e6,
				ep.Topo.SocketsForThreads(t))
		}
	}
	if cfg.measured() {
		dur := 150 * time.Millisecond
		if cfg.Short {
			dur = 40 * time.Millisecond
		}
		fmt.Fprintf(w, "-- measured on this host (GOMAXPROCS=%d; no socket cliff expected on a single-socket host) --\n",
			runtime.GOMAXPROCS(0))
		fmt.Fprintln(w, "threads  Mops/s")
		for _, t := range threads {
			fmt.Fprintf(w, "%-8d %.1f\n", t, machine.MeasureFetchAddRate(ws, t, dur)/1e6)
		}
	}
	return nil
}

// --- Fig. 4 ---

func runFig4(w io.Writer, cfg harnessConfig) error {
	// Paper: random uniform graph with 16M edges, average arity 8 ->
	// 2M vertices; scaled to the host via -scale.
	n := cfg.measuredN()
	if n > 2<<20 {
		n = 2 << 20
	}
	g, err := measuredUniform(n, 8, cfg.Seed)
	if err != nil {
		return err
	}
	res, err := core.BFS(g, 0, core.Options{
		Algorithm:  core.AlgSingleSocket,
		Threads:    4,
		Instrument: true,
		Telemetry:  cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "-- measured: uniform n=%s m=%s, single-socket algorithm with double check --\n",
		stats.FormatCount(int64(n)), stats.FormatCount(g.NumEdges()))
	fmt.Fprintln(w, "level  frontier   bitmap-reads  atomic-ops   atomics/reads")
	for i, ls := range res.PerLevel {
		ratio := 0.0
		if ls.BitmapReads > 0 {
			ratio = float64(ls.AtomicOps) / float64(ls.BitmapReads)
		}
		fmt.Fprintf(w, "%-6d %-10d %-13d %-12d %.3f\n",
			i, ls.Frontier, ls.BitmapReads, ls.AtomicOps, ratio)
	}
	return nil
}

// --- Fig. 5 ---

func runFig5(w io.Writer, cfg harnessConfig) error {
	variants := []simbfs.Variant{
		simbfs.VariantSimple, simbfs.VariantBitmap, simbfs.VariantBitmapDC, simbfs.VariantChannels,
	}
	if cfg.sim() {
		fmt.Fprintln(w, "-- simulated (EP model, uniform n=16M d=8), ME/s --")
		fmt.Fprintf(w, "%-8s", "threads")
		for _, v := range variants {
			fmt.Fprintf(w, "  %-28s", v)
		}
		fmt.Fprintln(w)
		wl := simbfs.Workload{Kind: simbfs.Uniform, N: 16e6, Degree: 8}
		for _, t := range []int{1, 2, 4, 8, 16} {
			fmt.Fprintf(w, "%-8d", t)
			for _, v := range variants {
				r := simbfs.Simulate(wl, simbfs.Config{Model: machine.EP(), Threads: t, Variant: v})
				fmt.Fprintf(w, "  %-28.0f", r.RatePerSec/1e6)
			}
			fmt.Fprintln(w)
		}
	}
	if cfg.measured() {
		n := cfg.measuredN()
		g, err := measuredUniform(n, 8, cfg.Seed)
		if err != nil {
			return err
		}
		// The measured columns follow the simulated variants: "bitmap" is
		// the single-socket tier without the double check.
		cols := []struct {
			name string
			alg  core.Algorithm
			noDC bool
		}{
			{"simple(Alg1)", core.AlgParallelSimple, false},
			{"bitmap(Alg2)", core.AlgSingleSocket, true},
			{"bitmap+dc(Alg2)", core.AlgSingleSocket, false},
			{"channels(Alg3)", core.AlgMultiSocket, false},
		}
		fmt.Fprintf(w, "-- measured on this host (uniform n=%s d=8, logical EP topology), ME/s --\n",
			stats.FormatCount(int64(n)))
		fmt.Fprintf(w, "%-8s", "threads")
		for _, c := range cols {
			fmt.Fprintf(w, "  %-16s", c.name)
		}
		fmt.Fprintln(w)
		for _, t := range measuredThreads(cfg) {
			fmt.Fprintf(w, "%-8d", t)
			for _, c := range cols {
				res, err := core.BFS(g, 0, core.Options{
					Algorithm: c.alg, Threads: t, Machine: topology.NehalemEP,
					DisableDoubleCheck: c.noDC, Telemetry: cfg.Telemetry,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %-16.1f", res.EdgesPerSecond()/1e6)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// --- Figs. 6a/7a/8a/9a: rates ---

func figRates(kind simbfs.GraphKind, m machine.Model) func(io.Writer, harnessConfig) error {
	return func(w io.Writer, cfg harnessConfig) error {
		degrees := []float64{8, 16, 24, 32}
		threadSweep := threadsFor(m)
		if cfg.sim() {
			fmt.Fprintf(w, "-- simulated (%s model, %s n=32M, edges 256M..1B), ME/s --\n", m.Topo.Name, kind)
			fmt.Fprintf(w, "%-8s", "threads")
			for _, d := range degrees {
				fmt.Fprintf(w, "  m=%-8s", stats.FormatCount(int64(32e6*d)))
			}
			fmt.Fprintln(w)
			for _, t := range threadSweep {
				fmt.Fprintf(w, "%-8d", t)
				for _, d := range degrees {
					wl := simbfs.Workload{Kind: kind, N: 32e6, Degree: d}
					fmt.Fprintf(w, "  %-10.0f", simbfs.SimulateBest(wl, m, t).RatePerSec/1e6)
				}
				fmt.Fprintln(w)
			}
		}
		if cfg.measured() {
			n := cfg.measuredN()
			fmt.Fprintf(w, "-- measured on this host (%s n=%s, logical EP topology), ME/s --\n",
				kind, stats.FormatCount(int64(n)))
			fmt.Fprintf(w, "%-8s", "threads")
			mdegrees := []int{8, 16, 32}
			for _, d := range mdegrees {
				fmt.Fprintf(w, "  d=%-8d", d)
			}
			fmt.Fprintln(w)
			for _, t := range measuredThreads(cfg) {
				fmt.Fprintf(w, "%-8d", t)
				for _, d := range mdegrees {
					g, err := measuredGraph(kind, n, d, cfg.Seed)
					if err != nil {
						return err
					}
					rate, err := bestBFS(g, t, cfg)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "  %-10.1f", rate/1e6)
				}
				fmt.Fprintln(w)
			}
		}
		return nil
	}
}

// --- Figs. 6b/7b/8b/9b: speedup ---

func figSpeedup(kind simbfs.GraphKind, m machine.Model) func(io.Writer, harnessConfig) error {
	return func(w io.Writer, cfg harnessConfig) error {
		if cfg.sim() {
			fmt.Fprintf(w, "-- simulated (%s model, %s n=32M), speedup over 1 thread --\n", m.Topo.Name, kind)
			fmt.Fprintln(w, "threads  d=8     d=16    d=32")
			for _, t := range threadsFor(m) {
				fmt.Fprintf(w, "%-8d", t)
				for _, d := range []float64{8, 16, 32} {
					wl := simbfs.Workload{Kind: kind, N: 32e6, Degree: d}
					fmt.Fprintf(w, " %-7.1f", simbfs.Speedup(wl, m, t))
				}
				fmt.Fprintln(w)
			}
		}
		if cfg.measured() {
			n := cfg.measuredN()
			g, err := measuredGraph(kind, n, 8, cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "-- measured on this host (%s n=%s d=8; GOMAXPROCS=%d limits real speedup) --\n",
				kind, stats.FormatCount(int64(n)), runtime.GOMAXPROCS(0))
			fmt.Fprintln(w, "threads  ME/s    speedup")
			var base float64
			for _, t := range measuredThreads(cfg) {
				rate, err := bestBFS(g, t, cfg)
				if err != nil {
					return err
				}
				if base == 0 {
					base = rate
				}
				fmt.Fprintf(w, "%-8d %-7.1f %.2f\n", t, rate/1e6, rate/base)
			}
		}
		return nil
	}
}

// --- Figs. 6c/7c/8c/9c: size sensitivity ---

func figSize(kind simbfs.GraphKind, m machine.Model) func(io.Writer, harnessConfig) error {
	return func(w io.Writer, cfg harnessConfig) error {
		threads := m.Topo.TotalThreads()
		if cfg.sim() {
			fmt.Fprintf(w, "-- simulated (%s model, %s, %d threads), ME/s --\n", m.Topo.Name, kind, threads)
			fmt.Fprintln(w, "vertices  d=8     d=16    d=32")
			for _, n := range []float64{1e6, 2e6, 4e6, 8e6, 16e6, 32e6} {
				fmt.Fprintf(w, "%-9s", stats.FormatCount(int64(n)))
				for _, d := range []float64{8, 16, 32} {
					wl := simbfs.Workload{Kind: kind, N: n, Degree: d}
					fmt.Fprintf(w, " %-7.0f", simbfs.SimulateBest(wl, m, threads).RatePerSec/1e6)
				}
				fmt.Fprintln(w)
			}
		}
		if cfg.measured() {
			fmt.Fprintf(w, "-- measured on this host (%s d=8, %d threads, logical EP) --\n", kind, 4)
			fmt.Fprintln(w, "vertices  ME/s")
			maxScale := cfg.Scale
			if cfg.Short && maxScale > 16 {
				maxScale = 16
			}
			for s := maxScale - 4; s <= maxScale; s++ {
				if s < 10 {
					continue
				}
				g, err := measuredGraph(kind, 1<<s, 8, cfg.Seed)
				if err != nil {
					return err
				}
				rate, err := bestBFS(g, 4, cfg)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-9s %.1f\n", stats.FormatCount(int64(1)<<s), rate/1e6)
			}
		}
		return nil
	}
}

// --- Fig. 10 ---

func runFig10(w io.Writer, cfg harnessConfig) error {
	if cfg.sim() {
		fmt.Fprintln(w, "-- simulated (EX model): one independent single-socket BFS per socket --")
		fmt.Fprintln(w, "sockets  aggregate-ME/s")
		wl := simbfs.Workload{Kind: simbfs.Uniform, N: 8e6, Degree: 16}
		perSocket := simbfs.Simulate(wl, simbfs.Config{
			Model: machine.EX(), Threads: 16, Variant: simbfs.VariantBitmapDC,
		})
		for s := 1; s <= 4; s++ {
			fmt.Fprintf(w, "%-8d %.0f\n", s, float64(s)*perSocket.RatePerSec/1e6)
		}
	}
	if cfg.measured() {
		n := cfg.measuredN() / 4
		if n < 1<<12 {
			n = 1 << 12
		}
		fmt.Fprintln(w, "-- measured on this host: concurrent independent BFS instances --")
		fmt.Fprintln(w, "instances  aggregate-ME/s")
		for _, instances := range []int{1, 2, 4} {
			graphs := make([]*graph.Graph, instances)
			for i := range graphs {
				g, err := measuredUniform(n, 16, cfg.Seed+uint64(i))
				if err != nil {
					return err
				}
				graphs[i] = g
			}
			start := time.Now()
			type out struct {
				edges int64
				err   error
			}
			ch := make(chan out, instances)
			for i := range graphs {
				go func(i int) {
					res, err := core.BFS(graphs[i], 0, core.Options{
						Algorithm: core.AlgSingleSocket, Threads: 2, Telemetry: cfg.Telemetry,
					})
					if err != nil {
						ch <- out{0, err}
						return
					}
					ch <- out{res.EdgesTraversed, nil}
				}(i)
			}
			var totalEdges int64
			for range graphs {
				o := <-ch
				if o.err != nil {
					return o.err
				}
				totalEdges += o.edges
			}
			elapsed := time.Since(start).Seconds()
			fmt.Fprintf(w, "%-10d %.1f\n", instances, float64(totalEdges)/elapsed/1e6)
		}
	}
	return nil
}

// --- Tables ---

func runTable1(w io.Writer, _ harnessConfig) error {
	for _, m := range []topology.Machine{topology.NehalemEP, topology.NehalemEX} {
		fmt.Fprintf(w, "%-12s sockets=%d cores/socket=%d threads/core=%d clock=%.2fGHz L1=%dKB L2=%dKB L3=%dMB line=%dB channels=%d mem=%dGB\n",
			m.Name, m.Sockets, m.CoresPerSocket, m.ThreadsPerCore, m.ClockGHz,
			m.L1KB, m.L2KB, m.L3MB, m.CacheLineBytes, m.MemChannels, m.MemoryGB)
	}
	return nil
}

func runTable2(w io.Writer, _ harnessConfig) error {
	fmt.Fprintf(w, "%-20s %-18s %-8s %-8s %-8s %-8s\n", "system", "cpu", "GHz", "sockets", "threads", "memGB")
	for _, s := range refdata.TableII {
		fmt.Fprintf(w, "%-20s %-18s %-8.2f %-8d %-8d %-8d\n",
			s.Name, s.CPU, s.SpeedGHz, s.Sockets, s.Threads, s.MemoryGB)
	}
	return nil
}

func runTable3(w io.Writer, cfg harnessConfig) error {
	fmt.Fprintf(w, "%-28s %-18s %-6s %-22s %-10s\n", "reference", "system", "procs", "graph", "ME/s")
	for _, r := range refdata.TableIII {
		size := ""
		if r.Vertices > 0 {
			size = fmt.Sprintf(" %s/%s", stats.FormatCount(r.Vertices), stats.FormatCount(r.Edges))
		}
		fmt.Fprintf(w, "%-28s %-18s %-6d %-22s %-10.0f\n",
			r.Reference, r.System, r.Processors, r.GraphType+size, r.RateMEs)
	}
	if cfg.sim() {
		fmt.Fprintln(w, "\n-- this work (simulated 4-socket Nehalem EX, 64 threads) vs the headlines --")
		ex := machine.EX()
		rows := []struct {
			desc    string
			w       simbfs.Workload
			baseME  float64
			claimed float64
		}{
			{"uniform 64M/512M vs Cray XMT-128", simbfs.Workload{Kind: simbfs.Uniform, N: 64e6, Degree: 8}, 210, 2.4},
			{"R-MAT 200M/1B vs Cray MTA-2/40", simbfs.Workload{Kind: simbfs.RMAT, N: 200e6, Degree: 5}, 500, 1.1},
			{"uniform d=50 vs BlueGene/L-256", simbfs.Workload{Kind: simbfs.Uniform, N: 64e6, Degree: 50}, 232, 5.0},
		}
		for _, r := range rows {
			got := simbfs.SimulateBest(r.w, ex, 64).RatePerSec / 1e6
			fmt.Fprintf(w, "%-36s %6.0f ME/s = %.1fx published (paper claims %.1fx)\n",
				r.desc, got, got/r.baseME, r.claimed)
		}
	}
	return nil
}

// --- extensions beyond the paper ---

func runExtHybrid(w io.Writer, cfg harnessConfig) error {
	if !cfg.measured() {
		fmt.Fprintln(w, "(measured-only experiment; rerun with -mode measured or both)")
		return nil
	}
	n := cfg.measuredN()
	fmt.Fprintln(w, "-- measured: top-down (Alg. 2) vs direction-optimizing hybrid --")
	fmt.Fprintln(w, "(effective-ME/s divides the full edge count by wall time, so the")
	fmt.Fprintln(w, " rows are directly comparable despite the hybrid scanning less)")
	fmt.Fprintln(w, "graph          algorithm             scanned/m  time        effective-ME/s")
	for _, d := range []int{8, 16} {
		g, err := measuredUniform(n, d, cfg.Seed)
		if err != nil {
			return err
		}
		gt := g.Transpose()
		for _, mode := range []struct {
			name string
			opt  core.Options
		}{
			{"top-down", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4, Telemetry: cfg.Telemetry}},
			{"hybrid", core.Options{Algorithm: core.AlgDirectionOptimizing, Threads: 4, Transpose: gt,
				Telemetry: cfg.Telemetry}},
		} {
			res, err := core.BFS(g, 0, mode.opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "uniform d=%-4d %-21s %-10.2f %-11v %.1f\n",
				d, mode.name,
				float64(res.EdgesTraversed)/float64(g.NumEdges()),
				res.Duration.Round(time.Microsecond*100),
				float64(g.NumEdges())/res.Duration.Seconds()/1e6)
		}
	}
	return nil
}

// --- helpers ---

func threadsFor(m machine.Model) []int {
	if m.Topo.TotalThreads() >= 64 {
		return []int{1, 2, 4, 8, 16, 32, 64}
	}
	return []int{1, 2, 4, 8, 16}
}

func measuredGraph(kind simbfs.GraphKind, n, d int, seed uint64) (*graph.Graph, error) {
	if kind == simbfs.RMAT {
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return measuredRMAT(scale, int64(n)*int64(d), seed)
	}
	return measuredUniform(n, d, seed)
}
