package core

import (
	"testing"
	"testing/quick"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/topology"
)

// TestQuickAllTiersMatchSequential is the randomized cross-check: for
// arbitrary small graphs and arbitrary (algorithm, threads, machine,
// batching) configurations, every tier must agree with the sequential
// reference on the reached set, edge count and level count, and must
// produce a valid BFS tree.
func TestQuickAllTiersMatchSequential(t *testing.T) {
	machines := []topology.Machine{
		topology.Generic(1, 2, 2),
		topology.NehalemEP,
		topology.NehalemEX,
	}
	algs := []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing}
	f := func(raw []uint16, rootRaw uint8, algRaw, thrRaw, machRaw, batchRaw uint8) bool {
		const n = 48
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{
				Src: graph.Vertex(raw[i] % n),
				Dst: graph.Vertex(raw[i+1] % n),
			})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		root := graph.Vertex(rootRaw % n)
		ref, err := BFS(g, root, Options{Algorithm: AlgSequential})
		if err != nil {
			return false
		}
		opt := Options{
			Algorithm: algs[int(algRaw)%len(algs)],
			Threads:   1 + int(thrRaw)%9,
			Machine:   machines[int(machRaw)%len(machines)],
			BatchSize: 1 + int(batchRaw)%100,
		}
		res, err := BFS(g, root, opt)
		if err != nil {
			return false
		}
		if res.Reached != ref.Reached || res.Levels != ref.Levels {
			return false
		}
		if opt.Algorithm != AlgDirectionOptimizing && res.EdgesTraversed != ref.EdgesTraversed {
			return false
		}
		return ValidateTree(g, root, res.Parents) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStressRepeatedConcurrentRuns hammers the multi-socket tier with
// many consecutive runs at high logical thread counts to shake out
// level-synchronization bugs that need specific interleavings.
func TestStressRepeatedConcurrentRuns(t *testing.T) {
	g := must(gen.RMAT(12, 1<<15, gen.GTgraphDefaults, 31))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for i := 0; i < 30; i++ {
		res := runSched(t, g, 0, Options{
			Algorithm: AlgMultiSocket,
			Threads:   16,
			Machine:   topology.NehalemEX,
			BatchSize: 1 + i*7%128,
		}, schedule{chunk: 1 + i*13%256})
		if res.Reached != ref.Reached || res.EdgesTraversed != ref.EdgesTraversed {
			t.Fatalf("run %d: Reached=%d/%d Edges=%d/%d", i,
				res.Reached, ref.Reached, res.EdgesTraversed, ref.EdgesTraversed)
		}
	}
}

// TestStressHybridModeFlapping forces the hybrid to cross the
// top-down/bottom-up boundary repeatedly by searching a graph whose
// frontier oscillates: a chain of expander blobs.
func TestStressHybridModeFlapping(t *testing.T) {
	// Build blobs of 600 vertices connected by single bridge edges:
	// the frontier balloons inside a blob (bottom-up) and collapses to
	// one vertex at each bridge (top-down).
	const blobs = 5
	const blobSize = 600
	n := blobs * blobSize
	var edges []graph.Edge
	r := func(i int) graph.Vertex { return graph.Vertex(i) }
	for b := 0; b < blobs; b++ {
		base := b * blobSize
		// Hub-and-spoke plus ring inside the blob: depth 2, wide.
		for i := 1; i < blobSize; i++ {
			edges = append(edges, graph.Edge{Src: r(base), Dst: r(base + i)})
			edges = append(edges, graph.Edge{Src: r(base + i), Dst: r(base + (i+1)%blobSize)})
		}
		if b+1 < blobs {
			// Bridge from an arbitrary member to the next blob's hub.
			edges = append(edges, graph.Edge{Src: r(base + blobSize/2), Dst: r(base + blobSize)})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, threads := range []int{2, 4, 8} {
		res := run(t, g, 0, Options{Algorithm: AlgDirectionOptimizing, Threads: threads})
		validate(t, g, res)
		if res.Reached != ref.Reached || res.Levels != ref.Levels {
			t.Errorf("threads=%d: Reached=%d/%d Levels=%d/%d", threads,
				res.Reached, ref.Reached, res.Levels, ref.Levels)
		}
	}
}

// TestRootsAcrossPartitionBoundaries runs the multi-socket tier from
// roots that land on each socket's partition, including the exact
// boundary vertices.
func TestRootsAcrossPartitionBoundaries(t *testing.T) {
	g := must(gen.Uniform(1000, 8, 17))
	part, err := topology.NewPartition(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	var roots []graph.Vertex
	for s := 0; s < 4; s++ {
		lo, hi := part.Range(s)
		if lo < hi {
			roots = append(roots, graph.Vertex(lo), graph.Vertex(hi-1))
		}
	}
	for _, root := range roots {
		ref := run(t, g, root, Options{Algorithm: AlgSequential})
		res := run(t, g, root, Options{
			Algorithm: AlgMultiSocket,
			Threads:   32,
			Machine:   topology.NehalemEX,
		})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("root %d: Reached=%d, want %d", root, res.Reached, ref.Reached)
		}
	}
}

// TestLargerIntegrationRun is the heavyweight end-to-end check: a
// quarter-million-vertex R-MAT graph through every tier.
func TestLargerIntegrationRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large integration run")
	}
	g := must(gen.RMAT(18, 1<<21, gen.GTgraphDefaults, 99))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, alg := range []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing} {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 8, Machine: topology.NehalemEP})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("%v: Reached=%d, want %d", alg, res.Reached, ref.Reached)
		}
	}
}
