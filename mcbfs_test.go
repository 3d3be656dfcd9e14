package mcbfs_test

import (
	"bytes"
	"testing"

	"mcbfs"
)

// TestPublicAPIRoundTrip exercises the whole public surface the way a
// downstream user would: generate, search, validate, inspect.
func TestPublicAPIRoundTrip(t *testing.T) {
	g, err := mcbfs.UniformGraph(10_000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcbfs.BFS(g, 0, mcbfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcbfs.ValidateTree(g, 0, res.Parents); err != nil {
		t.Fatal(err)
	}
	if res.Reached < 9_000 {
		t.Errorf("reached only %d of 10000 on a degree-8 uniform graph", res.Reached)
	}
	depths := mcbfs.TreeDepths(res.Parents, 0)
	if depths[0] != 0 {
		t.Errorf("root depth = %d", depths[0])
	}
	if mcbfs.FormatRate(res.EdgesPerSecond()) == "" {
		t.Error("empty rate string")
	}
}

func TestPublicAPIExplicitMachine(t *testing.T) {
	g, err := mcbfs.RMATGraph(12, 1<<15, mcbfs.GTgraphDefaults, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcbfs.BFS(g, 3, mcbfs.Options{
		Algorithm: mcbfs.AlgMultiSocket,
		Threads:   8,
		Machine:   mcbfs.NehalemEP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcbfs.ValidateTree(g, 3, res.Parents); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != mcbfs.AlgMultiSocket {
		t.Errorf("ran %v", res.Algorithm)
	}
}

func TestPublicAPIBuildersAndGenerators(t *testing.T) {
	if _, err := mcbfs.NewGraph(3, []mcbfs.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.NewGraphFromAdjacency([][]mcbfs.Vertex{{1}, {}}); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.SSCA2Graph(100, 5, 0.2, 1); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.GridGraph(10, 10, 8); err != nil {
		t.Error(err)
	}
	m := mcbfs.GenericMachine(2, 4, 2)
	if m.TotalThreads() != 16 {
		t.Errorf("GenericMachine threads = %d", m.TotalThreads())
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	g, err := mcbfs.UniformGraph(500, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.mcbf"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := mcbfs.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Error("loaded graph differs")
	}
}

func TestPublicAPIAlgorithms(t *testing.T) {
	g, err := mcbfs.UniformGraph(3000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := mcbfs.ConnectedComponents(g, false, mcbfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cc.GiantFraction() < 0.9 {
		t.Errorf("giant fraction = %v", cc.GiantFraction())
	}
	if _, _, err := mcbfs.ShortestPath(g, 0, 100, mcbfs.Options{}); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.Distance(g, 0, 100, mcbfs.Options{}); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.STConnectivity(g, 0, 100); err != nil {
		t.Error(err)
	}
	if _, _, err := mcbfs.MultiSourceBFS(g, []mcbfs.Vertex{0, 1}); err != nil {
		t.Error(err)
	}
	if _, err := mcbfs.ApproxDiameter(g, 0, mcbfs.Options{}); err != nil {
		t.Error(err)
	}
	// Direction-optimizing tier through the public API.
	res, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgDirectionOptimizing, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcbfs.ValidateTree(g, 0, res.Parents); err != nil {
		t.Error(err)
	}
}

func TestPublicAPITextFormats(t *testing.T) {
	g, err := mcbfs.NewGraph(3, []mcbfs.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	var dimacs, elist bytes.Buffer
	if err := g.WriteDIMACS(&dimacs); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(&elist); err != nil {
		t.Fatal(err)
	}
	if g2, err := mcbfs.ReadDIMACS(&dimacs); err != nil || g2.NumEdges() != 2 {
		t.Errorf("DIMACS round trip: %v %v", g2, err)
	}
	if g3, err := mcbfs.ReadEdgeList(&elist); err != nil || g3.NumVertices() != 3 {
		t.Errorf("edge list round trip: %v %v", g3, err)
	}
}

func TestPublicAPIUnreachedMarkers(t *testing.T) {
	g, err := mcbfs.NewGraph(4, []mcbfs.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parents[2] != mcbfs.NoParent || res.Parents[3] != mcbfs.NoParent {
		t.Error("unreached vertices not marked NoParent")
	}
	depths := mcbfs.TreeDepths(res.Parents, 0)
	if depths[2] != mcbfs.NoDepth {
		t.Error("unreached vertex depth not NoDepth")
	}
}

// TestPublicAPISearcher exercises the amortized session surface: one
// Searcher answering repeated queries, with a per-query depth bound, under
// the race detector when CI runs this package with -race.
func TestPublicAPISearcher(t *testing.T) {
	g, err := mcbfs.UniformGraph(5_000, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mcbfs.NewSearcher(g, mcbfs.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, root := range []mcbfs.Vertex{0, 4_999, 123, 0} {
		res, err := s.BFS(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if err := mcbfs.ValidateTree(g, root, res.Parents); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
	res, err := s.Search(0, mcbfs.Query{MaxLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	// MaxLevels=1 expands only the root's level: root plus its direct
	// neighbours are discovered.
	if res.Levels != 1 || res.Reached < 1 || res.Reached > 9 {
		t.Errorf("MaxLevels=1 query: %d levels, %d reached", res.Levels, res.Reached)
	}
}
