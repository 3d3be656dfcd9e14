// Command graphgen generates synthetic graphs in the library's binary
// format — the reproduction's equivalent of the GTgraph suite the paper
// uses for its workloads.
//
// Usage:
//
//	graphgen -kind uniform -n 1048576 -degree 16 -seed 42 -o g.mcbf
//	graphgen -kind rmat -scale 20 -edges 16777216 -o rmat.mcbf
//	graphgen -kind ssca2 -n 100000 -clique 8 -o ssca.mcbf
//	graphgen -kind grid -rows 1024 -cols 1024 -conn 8 -o grid.mcbf
//
// Add -stats to print the degree distribution of the generated graph.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/stats"
)

func main() {
	var (
		kind    = flag.String("kind", "uniform", "uniform | rmat | ssca2 | grid")
		n       = flag.Int("n", 1<<20, "vertex count (uniform, ssca2)")
		degree  = flag.Int("degree", 8, "out-degree per vertex (uniform)")
		scale   = flag.Int("scale", 20, "log2 vertex count (rmat)")
		edges   = flag.Int64("edges", 1<<23, "edge count (rmat)")
		a       = flag.Float64("a", gen.GTgraphDefaults.A, "R-MAT parameter a")
		b       = flag.Float64("b", gen.GTgraphDefaults.B, "R-MAT parameter b")
		c       = flag.Float64("c", gen.GTgraphDefaults.C, "R-MAT parameter c")
		d       = flag.Float64("d", gen.GTgraphDefaults.D, "R-MAT parameter d")
		clique  = flag.Int("clique", 8, "max clique size (ssca2)")
		inter   = flag.Float64("inter", 0.2, "inter-clique edge fraction (ssca2)")
		rows    = flag.Int("rows", 1024, "grid rows")
		cols    = flag.Int("cols", 1024, "grid cols")
		conn    = flag.Int("conn", 4, "grid connectivity (4 or 8)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		out     = flag.String("o", "", "output file (required)")
		show    = flag.Bool("stats", false, "print degree statistics")
		threads = flag.Int("threads", 0, "CSR construction worker count (0 = GOMAXPROCS)")
		order   = flag.String("order", "natural", "bake a vertex ordering into the saved layout: natural, degree, dbg, rcm (consumers load an already locality-optimized graph)")
	)
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -o is required")
		flag.Usage()
		os.Exit(2)
	}
	ordering, err := graph.ParseOrdering(*order)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(2)
	}
	if *threads > 0 {
		graph.SetBuildParallelism(*threads)
	}

	var g *graph.Graph
	start := time.Now()
	switch *kind {
	case "uniform":
		g, err = gen.Uniform(*n, *degree, *seed)
	case "rmat":
		g, err = gen.RMAT(*scale, *edges, gen.RMATParams{A: *a, B: *b, C: *c, D: *d}, *seed)
	case "ssca2":
		g, err = gen.SSCA2(*n, *clique, *inter, *seed)
	case "grid":
		g, err = gen.Grid(*rows, *cols, *conn)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	construction := time.Since(start)

	// Bake the requested ordering into the saved layout: the relabeled
	// CSR goes to disk, so every consumer loads the locality-optimized
	// graph without paying the reorder itself. The ordering tag and the
	// inverse permutation travel in the file's version-2 metadata, so
	// loaders can tell the layout is relabeled and translate vertex ids
	// back to the generator's originals.
	var meta *graph.FileMeta
	if ordering != graph.OrderNatural {
		rd, err := g.Reorder(ordering)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		g = rd.Graph
		meta = &graph.FileMeta{Order: rd.Order, Inv: rd.Inv}
		fmt.Printf("reorder: ordering %s in %v (perm %v + relabel %v)\n",
			ordering, rd.ReorderTime().Round(time.Millisecond),
			rd.PermTime.Round(time.Millisecond), rd.RelabelTime.Round(time.Millisecond))
	}

	saveStart := time.Now()
	if err := g.SaveMeta(*out, meta); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %s vertices, %s edges, %s on disk\n",
		*out, stats.FormatCount(int64(g.NumVertices())), stats.FormatCount(g.NumEdges()),
		stats.FormatCount(g.MemoryFootprint()))
	rate := 0.0
	if s := construction.Seconds(); s > 0 {
		rate = float64(g.NumEdges()) / s
	}
	fmt.Printf("construction: %v (%s edges/s, %d-way build), save: %v\n",
		construction.Round(time.Millisecond), stats.FormatCount(int64(rate)),
		graph.BuildParallelism(), time.Since(saveStart).Round(time.Millisecond))

	if *show {
		s := g.ComputeStats()
		fmt.Printf("degrees: min=%d max=%d avg=%.2f isolated=%d\n",
			s.MinDegree, s.MaxDegree, s.AvgDegree, s.Isolated)
		fmt.Println("degree histogram (bucket i holds degrees [2^(i-1), 2^i)):")
		for i, c := range g.DegreeHistogram() {
			fmt.Printf("  bucket %-2d %d\n", i, c)
		}
	}
}
