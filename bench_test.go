// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices DESIGN.md calls out.
//
// Two kinds of benchmark appear here:
//
//   - measured: real library runs on this host at host-appropriate
//     sizes; b.N iterations are timed as usual and the achieved rate is
//     reported as the custom metric "ME/s".
//   - simulated: the calibrated machine model evaluated at the paper's
//     full scale; the simulation itself is what is timed (it is
//     microseconds), and the *reproduced paper figure* is reported as
//     the custom metric "sim-ME/s".
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mcbfs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/graph500"
	"mcbfs/internal/machine"
	"mcbfs/internal/queue"
	"mcbfs/internal/simbfs"
	"mcbfs/internal/ssca2"
	"mcbfs/internal/topology"
)

// benchGraph caches measured-workload graphs across benchmarks.
var (
	benchMu     sync.Mutex
	benchGraphs = map[string]*graph.Graph{}
)

func benchUniform(b *testing.B, n, d int) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("u/%d/%d", n, d)
	benchMu.Lock()
	defer benchMu.Unlock()
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, err := gen.Uniform(n, d, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

func benchRMAT(b *testing.B, scale int, m int64) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("r/%d/%d", scale, m)
	benchMu.Lock()
	defer benchMu.Unlock()
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, err := gen.RMAT(scale, m, gen.GTgraphDefaults, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

// runBFS times b.N searches and reports the measured rate.
func runBFS(b *testing.B, g *graph.Graph, opt core.Options) {
	b.Helper()
	var edges int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := core.BFS(g, 0, opt)
		if err != nil {
			b.Fatal(err)
		}
		edges += res.EdgesTraversed
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
	}
}

// reportSim runs one paper-scale simulation per iteration and reports
// the simulated figure.
func reportSim(b *testing.B, f func() simbfs.Result) {
	b.Helper()
	var last simbfs.Result
	for i := 0; i < b.N; i++ {
		last = f()
	}
	b.ReportMetric(last.RatePerSec/1e6, "sim-ME/s")
}

// --- Fig. 2: memory pipelining ---

func BenchmarkFig2MemoryPipelining(b *testing.B) {
	for _, ws := range []int64{32 << 10, 8 << 20, 64 << 20} {
		for _, depth := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("ws=%dKB/depth=%d", ws>>10, depth), func(b *testing.B) {
				var rate float64
				for i := 0; i < b.N; i++ {
					rate = machine.MeasureRandomReadRate(ws, depth, 30*time.Millisecond)
				}
				b.ReportMetric(rate/1e6, "Mreads/s")
			})
		}
	}
}

// --- Fig. 3: fetch-and-add scaling ---

func BenchmarkFig3FetchAndAdd(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = machine.MeasureFetchAddRate(4<<20, threads, 30*time.Millisecond)
			}
			b.ReportMetric(rate/1e6, "Mops/s")
		})
	}
}

// --- Fig. 4: bitmap accesses vs atomics ---

func BenchmarkFig4InstrumentedBFS(b *testing.B) {
	g := benchUniform(b, 1<<20, 8) // paper: 16M edges, arity 8 (scaled)
	var atomics, reads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.BFS(g, 0, core.Options{
			Algorithm:  core.AlgSingleSocket,
			Threads:    4,
			Instrument: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		atomics, reads = 0, 0
		for _, ls := range res.PerLevel {
			atomics += ls.AtomicOps
			reads += ls.BitmapReads
		}
	}
	b.ReportMetric(float64(atomics)/float64(reads), "atomics/read")
}

// --- Fig. 5: impact of the optimizations ---

func BenchmarkFig5Optimizations(b *testing.B) {
	g := benchUniform(b, 1<<19, 8)
	algs := []struct {
		name string
		opt  core.Options
	}{
		{"simple", core.Options{Algorithm: core.AlgParallelSimple, Threads: 4, Machine: topology.NehalemEP}},
		{"bitmap", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4, Machine: topology.NehalemEP, DisableDoubleCheck: true}},
		{"bitmap+dc", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4, Machine: topology.NehalemEP}},
		{"channels", core.Options{Algorithm: core.AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP}},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) { runBFS(b, g, a.opt) })
	}
}

// --- Figs. 6-9: rates, scalability, size sensitivity ---

// benchFig runs the measured (scaled) and simulated (paper-scale)
// halves of one rate figure.
func benchFig(b *testing.B, kind simbfs.GraphKind, model machine.Model, measuredThreads []int) {
	// Measured at host scale.
	for _, d := range []int{8, 16} {
		var g *graph.Graph
		if kind == simbfs.RMAT {
			g = benchRMAT(b, 18, int64(d)<<18)
		} else {
			g = benchUniform(b, 1<<18, d)
		}
		for _, t := range measuredThreads {
			b.Run(fmt.Sprintf("measured/d=%d/threads=%d", d, t), func(b *testing.B) {
				runBFS(b, g, core.Options{Threads: t, Machine: topology.NehalemEP})
			})
		}
	}
	// Simulated at paper scale (n=32M, d=8..32).
	for _, d := range []float64{8, 32} {
		for _, t := range []int{1, model.Topo.TotalThreads()} {
			b.Run(fmt.Sprintf("sim/d=%.0f/threads=%d", d, t), func(b *testing.B) {
				w := simbfs.Workload{Kind: kind, N: 32e6, Degree: d}
				reportSim(b, func() simbfs.Result { return simbfs.SimulateBest(w, model, t) })
			})
		}
	}
}

func BenchmarkFig6UniformEP(b *testing.B) {
	benchFig(b, simbfs.Uniform, machine.EP(), []int{1, 4})
}

func BenchmarkFig7RMATEP(b *testing.B) {
	benchFig(b, simbfs.RMAT, machine.EP(), []int{1, 4})
}

func BenchmarkFig8UniformEX(b *testing.B) {
	benchFig(b, simbfs.Uniform, machine.EX(), []int{1, 4})
}

func BenchmarkFig9RMATEX(b *testing.B) {
	benchFig(b, simbfs.RMAT, machine.EX(), []int{1, 4})
}

// BenchmarkFig6cSizeSensitivity sweeps the vertex count at fixed degree
// (the paper's 6c/7c/8c/9c panels), measured on the host.
func BenchmarkFig6cSizeSensitivity(b *testing.B) {
	for _, scale := range []int{14, 16, 18, 20} {
		g := benchUniform(b, 1<<scale, 8)
		b.Run(fmt.Sprintf("n=2^%d", scale), func(b *testing.B) {
			runBFS(b, g, core.Options{Threads: 4, Machine: topology.NehalemEP})
		})
	}
}

// --- Fig. 10: throughput mode ---

func BenchmarkFig10Throughput(b *testing.B) {
	for _, instances := range []int{1, 2, 4} {
		graphs := make([]*graph.Graph, instances)
		for i := range graphs {
			graphs[i] = benchUniform(b, 1<<17, 16)
		}
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			var edges int64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				var mu sync.Mutex
				for j := 0; j < instances; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						res, err := core.BFS(graphs[j], 0, core.Options{
							Algorithm: core.AlgSingleSocket, Threads: 2,
						})
						if err != nil {
							b.Error(err)
							return
						}
						mu.Lock()
						edges += res.EdgesTraversed
						mu.Unlock()
					}(j)
				}
				wg.Wait()
			}
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
		})
	}
}

// --- Table III: headline comparisons (simulated at paper scale) ---

func BenchmarkTable3(b *testing.B) {
	ex := machine.EX()
	rows := []struct {
		name string
		w    simbfs.Workload
	}{
		{"uniform-64M-512M-vs-XMT128", simbfs.Workload{Kind: simbfs.Uniform, N: 64e6, Degree: 8}},
		{"rmat-200M-1B-vs-MTA2-40", simbfs.Workload{Kind: simbfs.RMAT, N: 200e6, Degree: 5}},
		{"uniform-d50-vs-BGL256", simbfs.Workload{Kind: simbfs.Uniform, N: 64e6, Degree: 50}},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			reportSim(b, func() simbfs.Result { return simbfs.SimulateBest(r.w, ex, 64) })
		})
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationVisitedLayout compares the bitmap visited set
// (Algorithm 2) against claiming directly on the 4-byte parent array
// (Algorithm 1's layout) — the paper's working-set argument.
func BenchmarkAblationVisitedLayout(b *testing.B) {
	g := benchUniform(b, 1<<20, 8)
	b.Run("bitmap-1bit", func(b *testing.B) {
		runBFS(b, g, core.Options{Algorithm: core.AlgSingleSocket, Threads: 4})
	})
	b.Run("parents-4byte", func(b *testing.B) {
		runBFS(b, g, core.Options{Algorithm: core.AlgParallelSimple, Threads: 4})
	})
}

// BenchmarkAblationDoubleCheck isolates the double-checked claim: the
// same algorithm with and without the plain probe before the atomic.
func BenchmarkAblationDoubleCheck(b *testing.B) {
	g := benchUniform(b, 1<<20, 8)
	b.Run("double-check", func(b *testing.B) {
		runBFS(b, g, core.Options{Algorithm: core.AlgSingleSocket, Threads: 4})
	})
	b.Run("always-atomic", func(b *testing.B) {
		runBFS(b, g, core.Options{Algorithm: core.AlgSingleSocket, Threads: 4, DisableDoubleCheck: true})
	})
}

// BenchmarkAblationBatchSize sweeps the inter-socket channel batch
// size (the paper's batching optimization, Section III).
func BenchmarkAblationBatchSize(b *testing.B) {
	g := benchUniform(b, 1<<19, 8)
	for _, batch := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			runBFS(b, g, core.Options{
				Algorithm: core.AlgMultiSocket,
				Threads:   8,
				Machine:   topology.NehalemEP,
				BatchSize: batch,
			})
		})
	}
}

// BenchmarkAblationChannelKind compares the FastForward+TicketLock
// channel against the plausible alternatives for moving (vertex,
// parent) tuples between sockets.
func BenchmarkAblationChannelKind(b *testing.B) {
	const tuples = 1 << 16
	const batch = 64
	makeBatch := func() []queue.Tuple {
		bt := make([]queue.Tuple, batch)
		for i := range bt {
			bt[i] = queue.Tuple{V: uint32(i), Parent: uint32(i + 1)}
		}
		return bt
	}

	b.Run("fastforward-ticketlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := queue.NewChannel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				buf := make([]queue.Tuple, batch)
				got := 0
				for got < tuples {
					got += c.ReceiveBatch(buf)
				}
			}()
			bt := makeBatch()
			for sent := 0; sent < tuples; sent += batch {
				c.SendBatch(bt)
			}
			<-done
		}
	})

	b.Run("go-chan-per-tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := make(chan queue.Tuple, 4096)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for got := 0; got < tuples; got++ {
					<-ch
				}
			}()
			for sent := 0; sent < tuples; sent++ {
				ch <- queue.Tuple{V: uint32(sent), Parent: 1}
			}
			<-done
		}
	})

	b.Run("go-chan-batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := make(chan []queue.Tuple, 256)
			done := make(chan struct{})
			go func() {
				defer close(done)
				got := 0
				for got < tuples {
					got += len(<-ch)
				}
			}()
			for sent := 0; sent < tuples; sent += batch {
				bt := makeBatch()
				ch <- bt
			}
			<-done
		}
	})

	b.Run("mutex-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var mu sync.Mutex
			var slice []queue.Tuple
			done := make(chan struct{})
			go func() {
				defer close(done)
				got := 0
				for got < tuples {
					mu.Lock()
					got += len(slice)
					slice = slice[:0]
					mu.Unlock()
				}
			}()
			bt := makeBatch()
			for sent := 0; sent < tuples; sent += batch {
				mu.Lock()
				slice = append(slice, bt...)
				mu.Unlock()
			}
			<-done
		}
	})
}

// BenchmarkAblationDirectionOptimizing compares the paper's top-down
// algorithm against the direction-optimizing hybrid extension; the
// custom metric shows the scanned-edge reduction that bottom-up's early
// exit buys on dense random graphs.
func BenchmarkAblationDirectionOptimizing(b *testing.B) {
	g := benchUniform(b, 1<<19, 16)
	gt := g.Transpose()
	b.Run("top-down", func(b *testing.B) {
		runBFS(b, g, core.Options{Algorithm: core.AlgSingleSocket, Threads: 4})
	})
	b.Run("hybrid", func(b *testing.B) {
		var scanned, topDownEdges int64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, err := core.BFS(g, 0, core.Options{
				Algorithm: core.AlgDirectionOptimizing,
				Threads:   4,
				Transpose: gt,
			})
			if err != nil {
				b.Fatal(err)
			}
			scanned = res.EdgesTraversed
			topDownEdges += res.EdgesTraversed
		}
		elapsed := time.Since(start).Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(topDownEdges)/elapsed/1e6, "ME/s")
		}
		b.ReportMetric(float64(scanned)/float64(g.NumEdges()), "scanned/m")
	})
}

// BenchmarkSearchThroughput measures the amortized-session repeated-
// search path: one Searcher, a search per iteration. -benchmem (or the
// ReportAllocs below) is the acceptance gauge — warm searches must not
// allocate their parents/bitmap/queue state, so allocs/op sits at ~0
// versus the tens of allocations a one-shot core.BFS pays. The one-shot
// variant is benchmarked alongside for the cold-vs-warm comparison.
func BenchmarkSearchThroughput(b *testing.B) {
	g := benchUniform(b, 1<<18, 8)
	roots := []graph.Vertex{0, 101, 1 << 10, 1 << 15, 7}
	tiers := []struct {
		name string
		opt  core.Options
	}{
		{"sequential", core.Options{Algorithm: core.AlgSequential, Threads: 1}},
		{"single-socket", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4}},
		{"multi-socket", core.Options{Algorithm: core.AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP}},
	}
	for _, tier := range tiers {
		b.Run("warm/"+tier.name, func(b *testing.B) {
			s, err := core.NewSearcher(g, tier.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.BFS(0); err != nil { // absorb the cold search
				b.Fatal(err)
			}
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := s.BFS(roots[i%len(roots)])
				if err != nil {
					b.Fatal(err)
				}
				edges += res.EdgesTraversed
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
				b.ReportMetric(float64(b.N)/elapsed, "searches/s")
			}
		})
		b.Run("oneshot/"+tier.name, func(b *testing.B) {
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := core.BFS(g, roots[i%len(roots)], tier.opt)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.EdgesTraversed
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
				b.ReportMetric(float64(b.N)/elapsed, "searches/s")
			}
		})
	}
}

// BenchmarkGraph500 runs the Graph500 protocol at a small scale and
// reports the harmonic-mean TEPS as the custom metric.
func BenchmarkGraph500(b *testing.B) {
	spec := graph500.DefaultSpec(16)
	spec.Roots = 4
	spec.SkipValidation = true
	var hm float64
	for i := 0; i < b.N; i++ {
		res, err := graph500.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		hm = res.HarmonicMeanTEPS
	}
	b.ReportMetric(hm/1e6, "hm-MTEPS")
}

// BenchmarkSSCA2Kernel4 measures betweenness-centrality throughput
// (BFS + dependency sweep per source) — SSCA#2's analysis kernel, the
// workload family of the paper's Fig. 10.
func BenchmarkSSCA2Kernel4(b *testing.B) {
	g := benchRMAT(b, 14, 1<<17).Undirected()
	sources := make([]graph.Vertex, 16)
	for i := range sources {
		sources[i] = graph.Vertex(i * 64)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := ssca2.Kernel4(g, sources, 4); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*len(sources))/elapsed, "sources/s")
	}
}

// BenchmarkAblationChunkSize sweeps the current-queue dequeue chunk
// (the granularity of the paper's LockedDequeue).
func BenchmarkAblationChunkSize(b *testing.B) {
	g := benchUniform(b, 1<<19, 8)
	for _, chunk := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			runBFS(b, g, core.Options{
				Algorithm: core.AlgSingleSocket,
				Threads:   4,
				ChunkSize: chunk,
			})
		})
	}
}

// BenchmarkInstrumentOverhead measures the cost of the observability
// layer on a 1M-vertex R-MAT graph: off (the guaranteed-zero-overhead
// path), per-level counters (-instrument), and the full per-worker
// timeline trace. "off" must stay within noise of the seed rate.
func BenchmarkInstrumentOverhead(b *testing.B) {
	g := benchRMAT(b, 20, 1<<23)
	base := core.Options{Algorithm: core.AlgSingleSocket, Threads: 4}
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"off", func(o *core.Options) {}},
		{"instrument", func(o *core.Options) { o.Instrument = true }},
		{"trace", func(o *core.Options) { o.Instrument = true; o.Trace = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opt := base
			v.mod(&opt)
			runBFS(b, g, opt)
		})
	}
}

// BenchmarkBatchThroughput measures the MS-BFS batched query engine on
// the scale-18 R-MAT workload: one iteration runs one shared traversal
// serving `width` lanes, so queries/s is width / batch-duration. The
// single/warm sub-benchmark is the comparison point — the same graph
// served one query at a time on a warm amortized Searcher. The
// acceptance gauges are queries/s at width 64 (the edge-scan
// amortization must beat the single-lane session by >= 3x) and
// allocs/op (the warm batched path must not allocate).
func BenchmarkBatchThroughput(b *testing.B) {
	g := benchRMAT(b, 18, 16<<18)
	n := uint64(g.NumVertices())
	roots := make([]graph.Vertex, core.MaxLanes)
	for i := range roots {
		roots[i] = graph.Vertex((uint64(i)*2654435761 + 1) % n)
	}
	b.Run("single/warm", func(b *testing.B) {
		s, err := core.NewSearcher(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.BFS(roots[0]); err != nil { // absorb the cold search
			b.Fatal(err)
		}
		var edges int64
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, err := s.BFS(roots[i%len(roots)])
			if err != nil {
				b.Fatal(err)
			}
			edges += res.EdgesTraversed
		}
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed, "queries/s")
			b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
		}
	})
	for _, width := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			bs, err := core.NewBatchSearcher(g, core.BatchOptions{Width: width})
			if err != nil {
				b.Fatal(err)
			}
			defer bs.Close()
			if _, err := bs.Search(roots[:width]); err != nil { // absorb the cold batch
				b.Fatal(err)
			}
			var laneEdges int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := bs.Search(roots[:width])
				if err != nil {
					b.Fatal(err)
				}
				for l := 0; l < width; l++ {
					laneEdges += res.Edges[l]
				}
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(b.N*width)/elapsed, "queries/s")
				b.ReportMetric(float64(laneEdges)/elapsed/1e6, "ME/s")
			}
		})
	}
}

// BenchmarkAblationVertexOrder sweeps locality orderings against search
// tiers on a scale-20 R-MAT graph (scale 16 under -short). Each
// relabeling is computed once outside every timed region and its
// one-time cost reported as "reorder-ms"; the timed loops are warm
// searches through the translation layer — callers speak original
// vertex ids throughout — so the ME/s delta against order=natural is
// the pure locality effect, and allocs/op must stay 0 to show the
// translation adds no per-query allocation.
func BenchmarkAblationVertexOrder(b *testing.B) {
	scale := 20
	if testing.Short() {
		scale = 16
	}
	g := benchRMAT(b, scale, int64(16)<<scale)

	// Deterministic non-isolated roots in original-id space; every
	// ordering answers the same queries.
	var roots []graph.Vertex
	for v := 0; v < g.NumVertices() && len(roots) < core.MaxLanes; v += 97 {
		if g.Degree(graph.Vertex(v)) > 0 {
			roots = append(roots, graph.Vertex(v))
		}
	}
	if len(roots) == 0 {
		b.Fatal("no non-isolated roots")
	}
	for distinct := len(roots); len(roots) < core.MaxLanes; {
		roots = append(roots, roots[len(roots)%distinct])
	}

	orderings := []graph.Ordering{
		graph.OrderNatural, graph.OrderDegree, graph.OrderDegreeGroup, graph.OrderBFS,
	}
	rds := make(map[graph.Ordering]*graph.Reordered, len(orderings))
	for _, o := range orderings {
		rd, err := g.Reorder(o)
		if err != nil {
			b.Fatal(err)
		}
		rds[o] = rd
	}

	tiers := []struct {
		name string
		opt  core.Options
	}{
		{"sequential", core.Options{Algorithm: core.AlgSequential, Threads: 1}},
		{"single-socket", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4}},
	}
	for _, o := range orderings {
		rd := rds[o]
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("order=%s/%s", o, tier.name), func(b *testing.B) {
				opt := tier.opt
				opt.Ordering = o
				opt.Reordered = rd
				s, err := core.NewSearcher(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				if _, err := s.BFS(roots[0]); err != nil { // absorb the cold search
					b.Fatal(err)
				}
				var edges int64
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					res, err := s.BFS(roots[i%len(roots)])
					if err != nil {
						b.Fatal(err)
					}
					edges += res.EdgesTraversed
				}
				if elapsed := time.Since(start).Seconds(); elapsed > 0 {
					b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
				}
				b.ReportMetric(float64(rd.ReorderTime().Milliseconds()), "reorder-ms")
			})
		}
		b.Run(fmt.Sprintf("order=%s/msbfs-64", o), func(b *testing.B) {
			bs, err := core.NewBatchSearcher(g, core.BatchOptions{
				Width:     core.MaxLanes,
				Ordering:  o,
				Reordered: rd,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer bs.Close()
			if _, err := bs.Search(roots); err != nil { // absorb the cold batch
				b.Fatal(err)
			}
			var laneEdges int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := bs.Search(roots)
				if err != nil {
					b.Fatal(err)
				}
				for l := range roots {
					laneEdges += res.Edges[l]
				}
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(laneEdges)/elapsed/1e6, "ME/s")
			}
			b.ReportMetric(float64(rd.ReorderTime().Milliseconds()), "reorder-ms")
		})
	}
}

// BenchmarkAblationLoadBalance isolates degree-aware scheduling: each
// parallel tier runs warm searches over a skewed R-MAT graph with
// edge-budgeted chunking + hub splitting on (the auto budget) and off
// (legacy fixed-size vertex chunks). The delta is the load-balance win;
// sub-benchmarks also assert the warm path stays allocation-free with
// the hub board wired in.
func BenchmarkAblationLoadBalance(b *testing.B) {
	scale := 20
	if testing.Short() {
		scale = 16
	}
	g := benchRMAT(b, scale, int64(16)<<scale)

	var roots []graph.Vertex
	for v := 0; v < g.NumVertices() && len(roots) < 16; v += 131 {
		if g.Degree(graph.Vertex(v)) > 0 {
			roots = append(roots, graph.Vertex(v))
		}
	}
	if len(roots) == 0 {
		b.Fatal("no non-isolated roots")
	}

	tiers := []struct {
		name string
		opt  core.Options
	}{
		{"parallel-simple", core.Options{Algorithm: core.AlgParallelSimple, Threads: 4}},
		{"single-socket", core.Options{Algorithm: core.AlgSingleSocket, Threads: 4}},
		{"multi-socket", core.Options{Algorithm: core.AlgMultiSocket, Threads: 4,
			Machine: topology.Generic(2, 2, 1)}},
		{"hybrid", core.Options{Algorithm: core.AlgDirectionOptimizing, Threads: 4}},
	}
	budgets := []struct {
		name   string
		budget int64
	}{
		{"budget=on", 0}, // auto: max(1024, avg-degree × chunk size)
		{"budget=off", core.EdgeBudgetOff},
	}
	for _, tier := range tiers {
		for _, bud := range budgets {
			b.Run(tier.name+"/"+bud.name, func(b *testing.B) {
				opt := tier.opt
				opt.EdgeBudget = bud.budget
				s, err := core.NewSearcher(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				if _, err := s.BFS(roots[0]); err != nil { // absorb the cold search
					b.Fatal(err)
				}
				// The warm path must reach a zero-alloc steady state:
				// scratch, hub board, and partition tables live in the
				// Searcher, but the unbounded inter-socket channels grow
				// to a steal-pattern-dependent segment high-water mark
				// over the first few searches before recirculating. Give
				// them a bounded number of searches to get there.
				steady := false
				for attempt := 0; attempt < 6 && !steady; attempt++ {
					steady = testing.AllocsPerRun(2, func() {
						if _, err := s.BFS(roots[1%len(roots)]); err != nil {
							b.Fatal(err)
						}
					}) == 0
				}
				if !steady {
					b.Fatal("warm searches still allocating after 6 settle rounds, want steady-state 0")
				}
				var edges int64
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					res, err := s.BFS(roots[i%len(roots)])
					if err != nil {
						b.Fatal(err)
					}
					edges += res.EdgesTraversed
				}
				if elapsed := time.Since(start).Seconds(); elapsed > 0 {
					b.ReportMetric(float64(edges)/elapsed/1e6, "ME/s")
				}
			})
		}
	}
}
