package algo

import (
	"testing"
	"testing/quick"

	"mcbfs/internal/core"
	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
)

func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// --- ConnectedComponents ---

func TestCCTwoIslands(t *testing.T) {
	// 0-1-2 and 3-4, as directed chains.
	g := must(graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}))
	cc, err := ConnectedComponents(g, false, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Count != 2 {
		t.Fatalf("Count = %d, want 2", cc.Count)
	}
	if cc.Label[0] != cc.Label[1] || cc.Label[1] != cc.Label[2] {
		t.Error("first island not one component")
	}
	if cc.Label[3] != cc.Label[4] {
		t.Error("second island not one component")
	}
	if cc.Label[0] == cc.Label[3] {
		t.Error("islands merged")
	}
	if cc.Sizes[cc.Label[0]] != 3 || cc.Sizes[cc.Label[3]] != 2 {
		t.Errorf("sizes = %v", cc.Sizes)
	}
}

func TestCCDirectedChainIsWeaklyConnected(t *testing.T) {
	// A directed chain is one weak component even though reachability
	// is asymmetric.
	g := must(gen.Chain(10))
	cc, err := ConnectedComponents(g, false, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Count != 1 {
		t.Errorf("Count = %d, want 1", cc.Count)
	}
}

func TestCCIsolatedVertices(t *testing.T) {
	g := must(graph.FromEdges(4, nil))
	cc, err := ConnectedComponents(g, true, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Count != 4 {
		t.Errorf("Count = %d, want 4", cc.Count)
	}
	for _, s := range cc.Sizes {
		if s != 1 {
			t.Errorf("sizes = %v", cc.Sizes)
		}
	}
}

func TestCCSymmetricFlag(t *testing.T) {
	g := must(gen.Grid(10, 10, 4)) // already symmetric
	a, err := ConnectedComponents(g, true, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConnectedComponents(g, false, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 1 || b.Count != 1 {
		t.Errorf("grid components: symmetric=%d undirected=%d, want 1", a.Count, b.Count)
	}
}

func TestCCGiantFraction(t *testing.T) {
	g := must(gen.Uniform(5000, 8, 1))
	cc, err := ConnectedComponents(g, false, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := cc.GiantFraction(); f < 0.95 {
		t.Errorf("degree-8 uniform graph giant fraction = %v, want ~1", f)
	}
	empty := &Components{}
	if empty.GiantFraction() != 0 {
		t.Error("empty GiantFraction should be 0")
	}
}

func TestCCParallelMatchesSequential(t *testing.T) {
	g := must(gen.RMAT(11, 8192, gen.GTgraphDefaults, 5))
	seq, err := ConnectedComponents(g, false, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ConnectedComponents(g, false, core.Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Count != par.Count {
		t.Fatalf("component counts differ: %d vs %d", seq.Count, par.Count)
	}
	// Labels may differ in numbering but must induce the same partition.
	remap := map[int32]int32{}
	for v := range seq.Label {
		s, p := seq.Label[v], par.Label[v]
		if got, ok := remap[s]; ok {
			if got != p {
				t.Fatalf("partition mismatch at vertex %d", v)
			}
		} else {
			remap[s] = p
		}
	}
}

func TestCCNilGraph(t *testing.T) {
	if _, err := ConnectedComponents(nil, false, core.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestCCLabelsAreCompleteAndConsistent(t *testing.T) {
	g := must(gen.Uniform(2000, 2, 9))
	cc, err := ConnectedComponents(g, false, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range cc.Sizes {
		total += s
	}
	if total != int64(len(cc.Label)) {
		t.Errorf("sizes sum to %d, want %d", total, len(cc.Label))
	}
	for v, l := range cc.Label {
		if l < 0 || int(l) >= cc.Count {
			t.Fatalf("vertex %d has invalid label %d", v, l)
		}
	}
	// Every edge connects same-labeled endpoints.
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if cc.Label[u] != cc.Label[v] {
				t.Fatalf("edge %d->%d crosses components", u, v)
			}
		}
	}
}

// --- ShortestPath / Distance ---

func TestShortestPathChain(t *testing.T) {
	g := must(gen.Chain(10))
	path, ok, err := ShortestPath(g, 2, 7, core.Options{Algorithm: core.AlgSequential})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(path) != 6 || path[0] != 2 || path[5] != 7 {
		t.Errorf("path = %v", path)
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	// Diamond with a long detour: 0->1->3, 0->2->3, and 0->4->5->3.
	g := must(graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 3}, {Src: 0, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 0, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}))
	d, err := Distance(g, 0, 3, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("Distance = %d, want 2", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := must(gen.Chain(5))
	_, ok, err := ShortestPath(g, 4, 0, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("backward path on a directed chain reported reachable")
	}
	d, err := Distance(g, 4, 0, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if d != -1 {
		t.Errorf("Distance = %d, want -1", d)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := must(gen.Chain(3))
	path, ok, err := ShortestPath(g, 1, 1, core.Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(path) != 1 || path[0] != 1 {
		t.Errorf("path = %v", path)
	}
}

func TestShortestPathBadEndpoints(t *testing.T) {
	g := must(gen.Chain(3))
	if _, _, err := ShortestPath(g, 0, 9, core.Options{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, _, err := ShortestPath(nil, 0, 0, core.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestShortestPathEdgesExist(t *testing.T) {
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 3))
	path, ok, err := ShortestPath(g, 0, 500, core.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("500 unreachable from 0 in this instance")
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Fatalf("hop %d->%d not an edge", path[i], path[i+1])
		}
	}
}

// --- STConnectivity ---

func TestSTConnectivityChain(t *testing.T) {
	g := must(gen.Chain(50))
	ok, err := STConnectivity(g, 0, 49)
	if err != nil || !ok {
		t.Errorf("forward chain: ok=%v err=%v", ok, err)
	}
	ok, err = STConnectivity(g, 49, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("backward chain reported connected")
	}
}

func TestSTConnectivitySelf(t *testing.T) {
	g := must(gen.Chain(3))
	ok, err := STConnectivity(g, 2, 2)
	if err != nil || !ok {
		t.Errorf("self-connectivity: ok=%v err=%v", ok, err)
	}
}

func TestSTConnectivityMatchesBFS(t *testing.T) {
	g := must(gen.RMAT(10, 4096, gen.GTgraphDefaults, 8))
	gt := g.Transpose()
	res, err := core.BFS(g, 0, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.Vertex{1, 17, 100, 512, 1023} {
		want := res.Parents[v] != core.NoParent || v == 0
		got, err := STConnectivityWithTranspose(g, gt, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("STConnectivity(0,%d) = %v, BFS says %v", v, got, want)
		}
	}
}

func TestSTConnectivityBadInputs(t *testing.T) {
	g := must(gen.Chain(3))
	if _, err := STConnectivity(g, 0, 5); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := STConnectivity(nil, 0, 0); err == nil {
		t.Error("nil graph accepted")
	}
	other := must(gen.Chain(4))
	if _, err := STConnectivityWithTranspose(g, other, 0, 1); err == nil {
		t.Error("mismatched transpose accepted")
	}
}

func TestQuickSTConnectivityAgreesWithBFS(t *testing.T) {
	f := func(raw []uint16, sRaw, tRaw uint8) bool {
		const n = 24
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.Vertex(raw[i] % n), Dst: graph.Vertex(raw[i+1] % n)})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		s, tt := graph.Vertex(sRaw%n), graph.Vertex(tRaw%n)
		res, err := core.BFS(g, s, core.Options{Algorithm: core.AlgSequential})
		if err != nil {
			return false
		}
		want := res.Parents[tt] != core.NoParent
		got, err := STConnectivity(g, s, tt)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- MultiSourceBFS ---

func TestMultiSourceBFSSingleRootMatchesTreeDepths(t *testing.T) {
	g := must(gen.BinaryTree(5))
	depths, nearest, err := MultiSourceBFS(g, []graph.Vertex{0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BFS(g, 0, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	ref := core.TreeDepths(res.Parents, 0)
	for v := range depths {
		if depths[v] != ref[v] {
			t.Errorf("depth[%d] = %d, want %d", v, depths[v], ref[v])
		}
		if depths[v] != core.NoDepth && nearest[v] != 0 {
			t.Errorf("nearest[%d] = %d, want 0", v, nearest[v])
		}
	}
}

func TestMultiSourceBFSNearest(t *testing.T) {
	// Chain 0..9 with roots at both ends: vertices 0-4 nearest to root
	// 0... but the chain is directed, so only forward reach counts.
	g := must(gen.Chain(10)).Undirected()
	depths, nearest, err := MultiSourceBFS(g, []graph.Vertex{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	if depths[4] != 4 || nearest[4] != 0 {
		t.Errorf("vertex 4: depth=%d nearest=%d, want 4, 0", depths[4], nearest[4])
	}
	if depths[7] != 2 || nearest[7] != 1 {
		t.Errorf("vertex 7: depth=%d nearest=%d, want 2, 1", depths[7], nearest[7])
	}
}

func TestMultiSourceBFSDuplicateRoots(t *testing.T) {
	g := must(gen.Chain(5))
	depths, _, err := MultiSourceBFS(g, []graph.Vertex{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if depths[2] != 0 || depths[4] != 2 {
		t.Errorf("depths = %v", depths)
	}
}

func TestMultiSourceBFSNoRoots(t *testing.T) {
	g := must(gen.Chain(5))
	depths, _, err := MultiSourceBFS(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range depths {
		if d != core.NoDepth {
			t.Errorf("vertex %d has depth %d with no roots", v, d)
		}
	}
}

func TestMultiSourceBFSBadRoot(t *testing.T) {
	g := must(gen.Chain(5))
	if _, _, err := MultiSourceBFS(g, []graph.Vertex{99}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, _, err := MultiSourceBFS(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
}

// --- Eccentricity / ApproxDiameter / Reachable ---

func TestEccentricityChain(t *testing.T) {
	g := must(gen.Chain(10))
	e, err := Eccentricity(g, 0, core.Options{Algorithm: core.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if e != 9 {
		t.Errorf("Eccentricity = %d, want 9", e)
	}
}

func TestApproxDiameterExactOnPath(t *testing.T) {
	// Undirected path of 20 vertices: diameter 19 regardless of start.
	g := must(gen.Chain(20)).Undirected()
	for _, start := range []graph.Vertex{0, 10, 19} {
		d, err := ApproxDiameter(g, start, core.Options{Algorithm: core.AlgSequential})
		if err != nil {
			t.Fatal(err)
		}
		if d != 19 {
			t.Errorf("ApproxDiameter from %d = %d, want 19", start, d)
		}
	}
}

func TestApproxDiameterGrid(t *testing.T) {
	// 5x9 4-connected grid: diameter = 4 + 8 = 12 (Manhattan).
	g := must(gen.Grid(5, 9, 4))
	d, err := ApproxDiameter(g, 22, core.Options{Algorithm: core.AlgSequential}) // center-ish
	if err != nil {
		t.Fatal(err)
	}
	if d < 8 || d > 12 {
		t.Errorf("ApproxDiameter = %d, want a strong lower bound of 12", d)
	}
}

func TestApproxDiameterNil(t *testing.T) {
	if _, err := ApproxDiameter(nil, 0, core.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}
