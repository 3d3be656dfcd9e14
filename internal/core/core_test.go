package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/topology"
)

// allAlgorithms lists the concrete tiers (not AlgAuto).
var allAlgorithms = []Algorithm{AlgSequential, AlgParallelSimple, AlgSingleSocket, AlgMultiSocket}

// run executes BFS and fails the test on error.
func run(t *testing.T, g *graph.Graph, root graph.Vertex, opt Options) *Result {
	t.Helper()
	res, err := BFS(g, root, opt)
	if err != nil {
		t.Fatalf("BFS(%v): %v", opt.Algorithm, err)
	}
	return res
}

// runSched is run with the frontier scheduler's chunk sizes set by sc
// instead of derived from the graph.
func runSched(t *testing.T, g *graph.Graph, root graph.Vertex, opt Options, sc schedule) *Result {
	t.Helper()
	s, err := newSearcher(g, opt, sc)
	if err != nil {
		t.Fatalf("newSearcher(%v): %v", opt.Algorithm, err)
	}
	defer s.Close()
	r, err := s.Search(root, Query{})
	if err != nil {
		t.Fatalf("Search(%v): %v", opt.Algorithm, err)
	}
	res := *r // the session is closed, so the result is the caller's
	return &res
}

// validate runs ValidateTree and fails on error.
func validate(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if err := ValidateTree(g, res.Root, res.Parents); err != nil {
		t.Fatalf("%v (threads=%d): %v", res.Algorithm, res.Threads, err)
	}
}

// must unwraps a generator result; generator failures in tests are
// programming errors, not test conditions.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestBFSRejectsBadInput(t *testing.T) {
	if _, err := BFS(nil, 0, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := must(gen.Chain(3))
	if _, err := BFS(g, 3, Options{}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := BFS(g, 0, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSequentialChain(t *testing.T) {
	g := must(gen.Chain(10))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 10 {
		t.Errorf("Reached = %d, want 10", res.Reached)
	}
	if res.Levels != 10 {
		t.Errorf("Levels = %d, want 10", res.Levels)
	}
	if res.EdgesTraversed != 9 {
		t.Errorf("EdgesTraversed = %d, want 9", res.EdgesTraversed)
	}
	for v := 1; v < 10; v++ {
		if res.Parents[v] != uint32(v-1) {
			t.Errorf("Parents[%d] = %d, want %d", v, res.Parents[v], v-1)
		}
	}
}

func TestSequentialUnreachable(t *testing.T) {
	// Chain explored from the middle: earlier vertices unreachable.
	g := must(gen.Chain(10))
	res := run(t, g, 5, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 5 {
		t.Errorf("Reached = %d, want 5", res.Reached)
	}
	for v := 0; v < 5; v++ {
		if res.Parents[v] != NoParent {
			t.Errorf("Parents[%d] = %d, want NoParent", v, res.Parents[v])
		}
	}
}

func TestSequentialSingleVertex(t *testing.T) {
	g := must(graph.FromAdjacency([][]graph.Vertex{{}}))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 1 || res.Levels != 1 || res.EdgesTraversed != 0 {
		t.Errorf("got Reached=%d Levels=%d Edges=%d", res.Reached, res.Levels, res.EdgesTraversed)
	}
}

func TestSequentialSelfLoop(t *testing.T) {
	g := must(graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}}))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 2 {
		t.Errorf("Reached = %d, want 2", res.Reached)
	}
}

// TestAllAlgorithmsAgreeOnFamilies is the central cross-validation:
// every tier, at several thread counts, on every graph family, must
// produce a valid BFS tree reaching the same vertex set with the same
// m_a and level count as the sequential reference.
func TestAllAlgorithmsAgreeOnFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
		root graph.Vertex
	}{
		{"uniform", must(gen.Uniform(2000, 8, 1)), 0},
		{"rmat", must(gen.RMAT(11, 16384, gen.GTgraphDefaults, 2)), 1},
		{"grid", must(gen.Grid(40, 50, 4)), 0},
		{"ssca2", must(gen.SSCA2(1000, 8, 0.2, 3)), 5},
		{"chain", must(gen.Chain(500)), 0},
		{"star", must(gen.Star(500)), 0},
		{"tree", must(gen.BinaryTree(9)), 0},
		{"sparse-islands", must(gen.Uniform(3000, 1, 4)), 7},
	}
	machines := []topology.Machine{
		topology.Generic(1, 4, 2),
		topology.NehalemEP,
		topology.NehalemEX,
	}
	for _, f := range families {
		ref := run(t, f.g, f.root, Options{Algorithm: AlgSequential})
		validate(t, f.g, ref)
		for _, alg := range allAlgorithms[1:] {
			for _, threads := range []int{1, 2, 3, 8} {
				for _, m := range machines {
					res := run(t, f.g, f.root, Options{
						Algorithm: alg,
						Threads:   threads,
						Machine:   m,
					})
					validate(t, f.g, res)
					if res.Reached != ref.Reached {
						t.Errorf("%s/%v/t%d/%s: Reached = %d, want %d",
							f.name, alg, threads, m.Name, res.Reached, ref.Reached)
					}
					if res.EdgesTraversed != ref.EdgesTraversed {
						t.Errorf("%s/%v/t%d/%s: EdgesTraversed = %d, want %d",
							f.name, alg, threads, m.Name, res.EdgesTraversed, ref.EdgesTraversed)
					}
					if res.Levels != ref.Levels {
						t.Errorf("%s/%v/t%d/%s: Levels = %d, want %d",
							f.name, alg, threads, m.Name, res.Levels, ref.Levels)
					}
				}
			}
		}
	}
}

func TestMultiSocketManyThreads(t *testing.T) {
	// 64 logical threads on the EX topology, more threads than host
	// cores: exercises barrier scheduling and all 4 channel pairs.
	g := must(gen.Uniform(5000, 16, 9))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	res := run(t, g, 0, Options{
		Algorithm: AlgMultiSocket,
		Threads:   64,
		Machine:   topology.NehalemEX,
	})
	validate(t, g, res)
	if res.Reached != ref.Reached || res.EdgesTraversed != ref.EdgesTraversed {
		t.Errorf("EX-64: Reached=%d/%d Edges=%d/%d",
			res.Reached, ref.Reached, res.EdgesTraversed, ref.EdgesTraversed)
	}
}

func TestMoreThreadsThanVertices(t *testing.T) {
	g := must(gen.Chain(3))
	for _, alg := range []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket} {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 16, Machine: topology.NehalemEP})
		validate(t, g, res)
		if res.Reached != 3 {
			t.Errorf("%v: Reached = %d, want 3", alg, res.Reached)
		}
	}
}

// TestDisableDoubleCheck pins each claim's bitmap traffic with the
// double check on and off. The multi-socket row runs on two sockets, so
// its counts include the probe of remote targets before they are sent.
func TestDisableDoubleCheck(t *testing.T) {
	g := must(gen.Uniform(1000, 8, 5))
	for _, tier := range []struct {
		alg     Algorithm
		machine topology.Machine
	}{
		{AlgSingleSocket, topology.NehalemEP},
		{AlgMultiSocket, topology.Generic(2, 2, 1)},
	} {
		for _, disable := range []bool{false, true} {
			res := run(t, g, 0, Options{
				Algorithm:          tier.alg,
				Threads:            4,
				Machine:            tier.machine,
				DisableDoubleCheck: disable,
				Instrument:         true,
			})
			validate(t, g, res)
			var atomics, probes, edges, sends int64
			for _, ls := range res.PerLevel {
				atomics += ls.AtomicOps
				probes += ls.BitmapReads
				edges += ls.Edges
				sends += ls.RemoteSends
			}
			if tier.alg == AlgMultiSocket && sends == 0 {
				t.Errorf("%v (disable=%v): no remote sends; the run never crossed a socket", tier.alg, disable)
			}
			if !disable {
				// Every scanned neighbour gets exactly one plain probe,
				// local or remote, and the owner probes each delivered
				// tuple once more before it claims it.
				if probes != edges+sends {
					t.Errorf("%v: probes = %d, want one per scanned edge %d plus one per sent tuple %d",
						tier.alg, probes, edges, sends)
				}
				continue
			}
			// Without the double check every scanned neighbour costs one
			// atomic op, by the scanner or by the owner it is sent to,
			// and no plain probes happen.
			if probes != 0 {
				t.Errorf("%v: %d bitmap probes with double-check disabled", tier.alg, probes)
			}
			if atomics != edges {
				t.Errorf("%v: atomics = %d, want one per scanned edge %d", tier.alg, atomics, edges)
			}
		}
	}
}

// TestDoubleCheckReducesAtomics verifies the mechanism behind the
// paper's Fig. 4: with the plain probe enabled, atomic operations are
// far fewer than bitmap reads in the later levels of a random graph.
func TestDoubleCheckReducesAtomics(t *testing.T) {
	g := must(gen.Uniform(20000, 8, 6))
	res := run(t, g, 0, Options{
		Algorithm:  AlgSingleSocket,
		Threads:    4,
		Instrument: true,
	})
	validate(t, g, res)
	if len(res.PerLevel) < 3 {
		t.Fatalf("graph too shallow for the test: %d levels", len(res.PerLevel))
	}
	late := res.PerLevel[len(res.PerLevel)-2]
	if late.AtomicOps*2 > late.BitmapReads && late.BitmapReads > 100 {
		t.Errorf("late level: %d atomics vs %d probes; double check not effective",
			late.AtomicOps, late.BitmapReads)
	}
	var totalAtomics int64
	for _, ls := range res.PerLevel {
		totalAtomics += ls.AtomicOps
	}
	// Each vertex is claimed at most once plus losing attempts; the
	// total must be far below one atomic per edge.
	if totalAtomics >= res.EdgesTraversed {
		t.Errorf("total atomics %d not below edges %d", totalAtomics, res.EdgesTraversed)
	}
}

func TestInstrumentationConsistency(t *testing.T) {
	g := must(gen.Uniform(3000, 8, 7))
	for _, alg := range allAlgorithms {
		res := run(t, g, 0, Options{
			Algorithm:  alg,
			Threads:    4,
			Machine:    topology.NehalemEP,
			Instrument: true,
		})
		if len(res.PerLevel) != res.Levels {
			t.Errorf("%v: %d PerLevel entries, %d levels", alg, len(res.PerLevel), res.Levels)
		}
		var frontier, edges int64
		for _, ls := range res.PerLevel {
			frontier += ls.Frontier
			edges += ls.Edges
		}
		if frontier != res.Reached {
			t.Errorf("%v: sum of frontiers %d != reached %d", alg, frontier, res.Reached)
		}
		if edges != res.EdgesTraversed {
			t.Errorf("%v: sum of level edges %d != EdgesTraversed %d", alg, edges, res.EdgesTraversed)
		}
	}
}

func TestInstrumentationDurations(t *testing.T) {
	g := must(gen.Uniform(20000, 8, 14))
	for _, alg := range []Algorithm{AlgSequential, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing} {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 4, Machine: topology.NehalemEP, Instrument: true})
		var sum int64
		nonZero := 0
		for _, ls := range res.PerLevel {
			if ls.Duration < 0 {
				t.Errorf("%v: negative level duration", alg)
			}
			if ls.Duration > 0 {
				nonZero++
			}
			sum += int64(ls.Duration)
		}
		if nonZero == 0 {
			t.Errorf("%v: no level recorded a positive duration", alg)
		}
		// Level durations must not wildly exceed the whole run.
		if sum > 3*int64(res.Duration)+int64(time.Millisecond) {
			t.Errorf("%v: level durations sum to %v, run took %v", alg, time.Duration(sum), res.Duration)
		}
	}
}

func TestNoInstrumentationByDefault(t *testing.T) {
	g := must(gen.Chain(10))
	res := run(t, g, 0, Options{Algorithm: AlgSingleSocket, Threads: 2})
	if res.PerLevel != nil {
		t.Error("PerLevel populated without Instrument")
	}
	// The other observers arm the same collector: their records carry
	// the folded counts, but PerLevel stays Instrument's alone.
	var edges int64
	res = run(t, g, 0, Options{Algorithm: AlgSingleSocket, Threads: 2, Trace: true,
		Tracer: obs.TracerFuncs{LevelEnd: func(level int, b obs.LevelBreakdown) { edges += b.Edges }}})
	if res.PerLevel != nil {
		t.Error("PerLevel populated by Trace and Tracer without Instrument")
	}
	if edges != res.EdgesTraversed {
		t.Errorf("Tracer records carry %d edges, search traversed %d", edges, res.EdgesTraversed)
	}
}

func TestAutoSelection(t *testing.T) {
	g := must(gen.Chain(10))
	cases := []struct {
		threads int
		machine topology.Machine
		want    Algorithm
	}{
		{1, topology.NehalemEP, AlgSequential},
		{4, topology.NehalemEP, AlgSingleSocket},
		{8, topology.NehalemEP, AlgMultiSocket},
		{16, topology.NehalemEX, AlgMultiSocket},
		{8, topology.NehalemEX, AlgSingleSocket},
	}
	for _, c := range cases {
		res := run(t, g, 0, Options{Threads: c.threads, Machine: c.machine})
		if res.Algorithm != c.want {
			t.Errorf("auto(threads=%d, %s) ran %v, want %v", c.threads, c.machine.Name, res.Algorithm, c.want)
		}
	}
}

func TestResultMetadata(t *testing.T) {
	g := must(gen.Uniform(500, 4, 8))
	res := run(t, g, 3, Options{Algorithm: AlgMultiSocket, Threads: 6, Machine: topology.NehalemEP})
	if res.Root != 3 {
		t.Errorf("Root = %d, want 3", res.Root)
	}
	if res.Threads != 6 {
		t.Errorf("Threads = %d, want 6", res.Threads)
	}
	if res.Algorithm != AlgMultiSocket {
		t.Errorf("Algorithm = %v", res.Algorithm)
	}
	if res.Duration <= 0 {
		t.Error("Duration not positive")
	}
	if res.EdgesPerSecond() <= 0 {
		t.Error("EdgesPerSecond not positive")
	}
}

func TestEdgesPerSecondZeroDuration(t *testing.T) {
	r := &Result{EdgesTraversed: 100}
	if r.EdgesPerSecond() != 0 {
		t.Error("zero duration should yield 0 rate")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range append([]Algorithm{AlgAuto}, allAlgorithms...) {
		if a.String() == "" {
			t.Errorf("empty String for %d", int(a))
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Errorf("unknown algorithm String = %q", Algorithm(42).String())
	}
}

func TestMultiEdgesAndSelfLoopsAllTiers(t *testing.T) {
	// Generators emit multi-edges and self-loops; every tier must cope.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}, {Src: 3, Dst: 3},
	}
	g := must(graph.FromEdges(4, edges))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, alg := range allAlgorithms[1:] {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 4, Machine: topology.NehalemEP})
		validate(t, g, res)
		if res.Reached != ref.Reached || res.EdgesTraversed != ref.EdgesTraversed {
			t.Errorf("%v: Reached=%d/%d Edges=%d/%d", alg, res.Reached, ref.Reached,
				res.EdgesTraversed, ref.EdgesTraversed)
		}
	}
}

func TestRepeatedRunsIndependent(t *testing.T) {
	// Two BFS runs on the same graph must not share state.
	g := must(gen.Uniform(1000, 8, 10))
	a := run(t, g, 0, Options{Algorithm: AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP})
	b := run(t, g, 0, Options{Algorithm: AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP})
	if a.Reached != b.Reached || a.EdgesTraversed != b.EdgesTraversed || a.Levels != b.Levels {
		t.Errorf("repeated runs differ: %+v vs %+v", a, b)
	}
	validate(t, g, b)
}

func TestValidateTreeCatchesCorruption(t *testing.T) {
	g := must(gen.Uniform(200, 6, 11))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})

	// Corrupt: fake edge parent.
	bad := append([]uint32(nil), res.Parents...)
	for v := 1; v < len(bad); v++ {
		if bad[v] != NoParent && bad[v] != uint32(v) {
			// Point v at a vertex that (almost surely) has no edge to it.
			bad[v] = uint32(v) // self-parent on non-root
			if err := ValidateTree(g, 0, bad); err == nil {
				t.Error("self-parent on non-root not caught")
			}
			break
		}
	}

	// Corrupt: mark a reached vertex unreached.
	bad2 := append([]uint32(nil), res.Parents...)
	for v := 1; v < len(bad2); v++ {
		if bad2[v] != NoParent {
			bad2[v] = NoParent
			break
		}
	}
	if err := ValidateTree(g, 0, bad2); err == nil {
		t.Error("missing reached vertex not caught")
	}

	// Corrupt: a parent without an edge, and nothing else. v keeps a
	// parent one level above it, so the depth rule still holds and only
	// the tree-edge rule can catch it.
	depth := TreeDepths(res.Parents, 0)
	noEdge := append([]uint32(nil), res.Parents...)
	found := false
	for v := 1; v < len(noEdge) && !found; v++ {
		for p := range noEdge {
			if depth[v] > 0 && depth[p] == depth[v]-1 && !g.HasEdge(graph.Vertex(p), graph.Vertex(v)) {
				noEdge[v] = uint32(p)
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no reached vertex has a non-adjacent vertex one level above it")
	}
	if err := ValidateTree(g, 0, noEdge); err == nil || !strings.Contains(err.Error(), "not in graph") {
		t.Errorf("parent without an edge: got %v, want the tree-edge error", err)
	}

	// Corrupt: wrong root parent.
	bad3 := append([]uint32(nil), res.Parents...)
	bad3[0] = 1
	if err := ValidateTree(g, 0, bad3); err == nil {
		t.Error("non-self root parent not caught")
	}

	// Wrong length.
	if err := ValidateTree(g, 0, res.Parents[:10]); err == nil {
		t.Error("short parents not caught")
	}
}

func TestValidateTreeCatchesNonBFSTree(t *testing.T) {
	// A valid spanning tree that is not breadth-first: in the diamond
	// 0->1, 0->2, 1->3, 2->3 plus 0->3, parent[3]=1 gives depth 2 but
	// dist is 1.
	g := must(graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 0, Dst: 3},
	}))
	parents := []uint32{0, 0, 0, 1}
	if err := ValidateTree(g, 0, parents); err == nil {
		t.Error("non-BFS spanning tree accepted")
	}
	// The BFS tree is accepted.
	parents[3] = 0
	if err := ValidateTree(g, 0, parents); err != nil {
		t.Errorf("true BFS tree rejected: %v", err)
	}
}

func TestTreeDepths(t *testing.T) {
	g := must(gen.BinaryTree(4))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	depths := TreeDepths(res.Parents, 0)
	if depths[0] != 0 {
		t.Errorf("root depth = %d", depths[0])
	}
	if depths[1] != 1 || depths[2] != 1 {
		t.Errorf("level-1 depths = %d, %d", depths[1], depths[2])
	}
	last := len(depths) - 1
	if depths[last] != 4 {
		t.Errorf("leaf depth = %d, want 4", depths[last])
	}
}

func TestTreeDepthsUnreached(t *testing.T) {
	g := must(gen.Chain(6))
	res := run(t, g, 3, Options{Algorithm: AlgSequential})
	depths := TreeDepths(res.Parents, 3)
	for v := 0; v < 3; v++ {
		if depths[v] != NoDepth {
			t.Errorf("unreached vertex %d has depth %d", v, depths[v])
		}
	}
	if depths[5] != 2 {
		t.Errorf("depth[5] = %d, want 2", depths[5])
	}
}

func TestTreeDepthsEmpty(t *testing.T) {
	if d := TreeDepths(nil, 0); len(d) != 0 {
		t.Errorf("TreeDepths(nil) = %v", d)
	}
}

func TestValidateTreeRootOutOfRange(t *testing.T) {
	g := must(gen.Chain(4))
	if err := ValidateTree(g, 4, []uint32{0, 0, 1, 2}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("root 4 of a 4-vertex graph: got %v, want an out-of-range error", err)
	}
}

func TestValidateTreeNilGraph(t *testing.T) {
	if err := ValidateTree(nil, 0, nil); err == nil || !strings.Contains(err.Error(), "nil graph") {
		t.Errorf("nil graph: got %v, want a nil-graph error", err)
	}
}

// wantDepths checks TreeDepths(parents, root) against want, failing
// rather than hanging if the walk does not return.
func wantDepths(t *testing.T, parents []uint32, root graph.Vertex, want []int32) {
	t.Helper()
	done := make(chan []int32, 1)
	go func() { done <- TreeDepths(parents, root) }()
	select {
	case got := <-done:
		if !slices.Equal(got, want) {
			t.Errorf("TreeDepths(%v, %d) = %v, want %v", parents, root, got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("TreeDepths(%v, %d) did not return", parents, root)
	}
}

func TestTreeDepthsRootOutOfRange(t *testing.T) {
	wantDepths(t, []uint32{0, 0, 1, 2}, 4, []int32{NoDepth, NoDepth, NoDepth, NoDepth})
}

func TestTreeDepthsParentLoop(t *testing.T) {
	// 1 and 2 point at each other and never reach the root.
	wantDepths(t, []uint32{0, 2, 1}, 0, []int32{0, NoDepth, NoDepth})
	wantDepths(t, []uint32{0, 0, 3, 2, 1}, 0, []int32{0, 1, NoDepth, NoDepth, 2})
}

func TestTreeDepthsChainLeavesTree(t *testing.T) {
	// 1's chain reaches 2, which has no parent; 4's reaches an id past
	// the array, and 3 hangs off 4.
	wantDepths(t, []uint32{0, 2, NoParent, 4, 9, 0}, 0, []int32{0, NoDepth, NoDepth, NoDepth, NoDepth, 1})
}

func TestBatchSizeVariants(t *testing.T) {
	// Tiny and large batch/chunk sizes must not change results.
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 12))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, batch := range []int{1, 2, 7, 1024} {
		res := runSched(t, g, 0, Options{
			Algorithm: AlgMultiSocket,
			Threads:   8,
			Machine:   topology.NehalemEP,
			BatchSize: batch,
		}, schedule{chunk: batch})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("batch=%d: Reached=%d, want %d", batch, res.Reached, ref.Reached)
		}
	}
}

func TestRemoteSendsOnlyAcrossSockets(t *testing.T) {
	g := must(gen.Uniform(4000, 8, 13))
	sent := func(res *Result) int64 {
		var sends int64
		for _, ls := range res.PerLevel {
			sends += ls.RemoteSends
		}
		return sends
	}
	// Single socket: no remote sends.
	res := run(t, g, 0, Options{
		Algorithm:  AlgMultiSocket,
		Threads:    4,
		Machine:    topology.Generic(1, 4, 1),
		Instrument: true,
	})
	if sends := sent(res); sends != 0 {
		t.Errorf("single-socket multi-socket run sent %d remote tuples", sends)
	}
	// Two sockets, paper-literal send path: every neighbour outside the
	// scanning worker's socket is sent. A worker that drains its own
	// window steals frontier vertices from the other socket, so which
	// socket scans a vertex depends on timing, but that does not move
	// the fraction: a uniform graph's targets are spread evenly over
	// both blocks, so seen from either socket about half of them are
	// remote.
	literal := run(t, g, 0, Options{
		Algorithm:          AlgMultiSocket,
		Threads:            8,
		Machine:            topology.NehalemEP,
		DisableDoubleCheck: true,
		Instrument:         true,
	})
	validate(t, g, literal)
	literalSends := sent(literal)
	frac := float64(literalSends) / float64(literal.EdgesTraversed)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("paper-literal remote fraction = %.2f, want ~0.5 for a uniform graph over 2 sockets", frac)
	}
	// With the double check, remote targets are probed before they are
	// sent. Each level's frontier is the same set in both runs, and the
	// probe only removes sends: every edge back into an earlier level
	// finds its target's bit set, on whichever socket it is scanned. So
	// the probed run sends far fewer tuples than the literal run's half
	// of the edges, but still some.
	res2 := run(t, g, 0, Options{
		Algorithm:  AlgMultiSocket,
		Threads:    8,
		Machine:    topology.NehalemEP,
		Instrument: true,
	})
	validate(t, g, res2)
	sends2 := sent(res2)
	if sends2 == 0 {
		t.Error("two-socket run sent no remote tuples")
	}
	if sends2 >= literalSends {
		t.Errorf("probed run sent %d tuples, want fewer than the paper-literal run's %d", sends2, literalSends)
	}
}

func TestPinThreadsOption(t *testing.T) {
	// Pinning is best-effort; correctness must be unaffected either way.
	g := must(gen.Uniform(3000, 8, 25))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, alg := range []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing} {
		res := run(t, g, 0, Options{
			Algorithm:  alg,
			Threads:    4,
			Machine:    topology.NehalemEP,
			PinThreads: true,
		})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("%v pinned: Reached = %d, want %d", alg, res.Reached, ref.Reached)
		}
	}
}
