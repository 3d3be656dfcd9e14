package core

import (
	"sync"
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/topology"
)

// sessionVariants covers every tier, including the hybrid (which needs
// a transpose; the generators used here produce symmetric graphs, so
// the graph passes as its own transpose at the call sites below).
var sessionVariants = []struct {
	name string
	opt  func(g *graph.Graph) Options
}{
	{"sequential", func(*graph.Graph) Options { return Options{Algorithm: AlgSequential, Threads: 1} }},
	{"parallel-simple", func(*graph.Graph) Options { return Options{Algorithm: AlgParallelSimple, Threads: 4} }},
	{"single-socket", func(*graph.Graph) Options { return Options{Algorithm: AlgSingleSocket, Threads: 4} }},
	{"multi-socket", func(*graph.Graph) Options {
		return Options{Algorithm: AlgMultiSocket, Threads: 4, Machine: topology.Generic(2, 2, 1)}
	}},
	{"hybrid", func(g *graph.Graph) Options {
		return Options{Algorithm: AlgDirectionOptimizing, Threads: 4, Transpose: g}
	}},
}

// expectSameTree compares a session search against a fresh sequential
// one-shot: identical depth per vertex (parent choice may differ under
// parallelism), identical reach, and a valid tree. EdgesTraversed is
// compared only when told to — the hybrid's early-exit bottom-up scans
// examine a nondeterministic edge subset.
func expectSameTree(t *testing.T, g *graph.Graph, res *Result, compareEdges bool) {
	t.Helper()
	validate(t, g, res)
	ref := run(t, g, res.Root, Options{Algorithm: AlgSequential, Threads: 1})
	if res.Reached != ref.Reached {
		t.Errorf("root %d: reached %d, fresh BFS reached %d", res.Root, res.Reached, ref.Reached)
	}
	if res.Levels != ref.Levels {
		t.Errorf("root %d: %d levels, fresh BFS %d", res.Root, res.Levels, ref.Levels)
	}
	if compareEdges && res.EdgesTraversed != ref.EdgesTraversed {
		t.Errorf("root %d: traversed %d edges, fresh BFS %d", res.Root, res.EdgesTraversed, ref.EdgesTraversed)
	}
	want := TreeDepths(ref.Parents, ref.Root)
	got := TreeDepths(res.Parents, res.Root)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("root %d: vertex %d at depth %d, fresh BFS says %d", res.Root, v, got[v], want[v])
		}
	}
}

// TestSearcherReuseAcrossRoots runs many searches from different roots
// on one session per tier and checks each against a fresh one-shot BFS.
func TestSearcherReuseAcrossRoots(t *testing.T) {
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 7)).Undirected()
	roots := []graph.Vertex{0, 17, 1023, 512, 17, 3}
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			s, err := NewSearcher(g, v.opt(g))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, root := range roots {
				res, err := s.BFS(root)
				if err != nil {
					t.Fatalf("root %d: %v", root, err)
				}
				expectSameTree(t, g, res, v.name != "hybrid")
			}
		})
	}
}

// TestSearcherQueryOverrides switches algorithm and depth bound per
// query on a single session: every tier answers on the same pooled
// state, and a bounded query must not leak its truncated frontier into
// the next unbounded one.
func TestSearcherQueryOverrides(t *testing.T) {
	g := must(gen.Uniform(3000, 8, 11)).Undirected()
	s, err := NewSearcher(g, Options{Threads: 4, Transpose: g, MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	algs := []Algorithm{
		AlgSequential, AlgMultiSocket, AlgSingleSocket,
		AlgDirectionOptimizing, AlgParallelSimple, AlgAuto,
	}
	for _, alg := range algs {
		// Session default MaxLevels=2 applies when the query is silent.
		res, err := s.Search(5, Query{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v bounded: %v", alg, err)
		}
		if res.Levels > 2 {
			t.Fatalf("%v: session MaxLevels=2 ignored, got %d levels", alg, res.Levels)
		}
		ref := run(t, g, 5, Options{Algorithm: AlgSequential, Threads: 1, MaxLevels: 2})
		if res.Reached != ref.Reached {
			t.Fatalf("%v bounded: reached %d, want %d", alg, res.Reached, ref.Reached)
		}

		// A negative query MaxLevels lifts the session bound.
		res, err = s.Search(5, Query{Algorithm: alg, MaxLevels: -1})
		if err != nil {
			t.Fatalf("%v unbounded: %v", alg, err)
		}
		expectSameTree(t, g, res, false)
	}
}

// TestSearcherTierSwitchAfterBottomUp runs a multi-socket query on a
// session whose previous direction-optimizing search ended in a
// bottom-up level (on a star, level 1 is bottom-up and finds nothing),
// so the next search must start top-down whatever its tier.
func TestSearcherTierSwitchAfterBottomUp(t *testing.T) {
	g := must(gen.Star(2000)).Undirected()
	s, err := NewSearcher(g, Options{
		Algorithm: AlgDirectionOptimizing,
		Threads:   4,
		Machine:   topology.Generic(2, 2, 1),
		Transpose: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, alg := range []Algorithm{AlgDirectionOptimizing, AlgMultiSocket, AlgDirectionOptimizing, AlgSingleSocket} {
		res, err := s.Search(1, Query{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		expectSameTree(t, g, res, false)
	}
}

// TestSearcherResetCompleteness is the reset property test: after a
// search that touches the giant component, a search from a tiny
// component must see pristine state — exactly its own vertices claimed,
// every other parent back to NoParent. A stale visited bit or parent
// entry from the previous search shows up directly here.
func TestSearcherResetCompleteness(t *testing.T) {
	// Chain 0..999 (giant component) plus edge 1000-1001 (tiny
	// component) in one 1002-vertex graph.
	edges := make([]graph.Edge, 0, 1000)
	for i := 0; i < 999; i++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(i), Dst: graph.Vertex(i + 1)})
	}
	edges = append(edges, graph.Edge{Src: 1000, Dst: 1001})
	directed, err := graph.FromEdges(1002, edges)
	if err != nil {
		t.Fatal(err)
	}
	g := directed.Undirected()

	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			s, err := NewSearcher(g, v.opt(g))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Alternate giant / tiny a few times: the giant search takes
			// the O(touched)-walk or full-clear path depending on tier
			// and threshold, the tiny one always the walk.
			for round := 0; round < 3; round++ {
				if _, err := s.BFS(0); err != nil {
					t.Fatal(err)
				}
				res, err := s.BFS(1000)
				if err != nil {
					t.Fatal(err)
				}
				if res.Reached != 2 {
					t.Fatalf("round %d: tiny component reached %d vertices, want 2", round, res.Reached)
				}
				for v, p := range res.Parents {
					switch v {
					case 1000:
						if p != 1000 {
							t.Fatalf("round %d: root parent %d", round, p)
						}
					case 1001:
						if p != 1000 {
							t.Fatalf("round %d: vertex 1001 parent %d, want 1000", round, p)
						}
					default:
						if p != NoParent {
							t.Fatalf("round %d: stale parent %d for vertex %d after reset", round, p, v)
						}
					}
				}
			}
		})
	}
}

// TestConcurrentSearchers runs two independent sessions over one shared
// graph from different goroutines — sessions share the immutable CSR
// but nothing else, which the race detector checks.
func TestConcurrentSearchers(t *testing.T) {
	g := must(gen.Uniform(2000, 8, 13))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: 3})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for r := 0; r < 8; r++ {
				root := graph.Vertex((seed*911 + r*37) % g.NumVertices())
				res, err := s.BFS(root)
				if err != nil {
					t.Error(err)
					return
				}
				if err := ValidateTree(g, root, res.Parents); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSearcherClose checks Close idempotence and the post-Close guard.
func TestSearcherClose(t *testing.T) {
	g := must(gen.Chain(10))
	s, err := NewSearcher(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BFS(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.BFS(0); err == nil {
		t.Error("Search on a closed Searcher succeeded")
	}
}

// TestSearcherRejectsBadInput mirrors the one-shot BFS input checks at
// the session layer.
func TestSearcherRejectsBadInput(t *testing.T) {
	if _, err := NewSearcher(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := must(gen.Chain(4))
	if _, err := NewSearcher(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	s, err := NewSearcher(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.BFS(100); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := s.Search(0, Query{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown per-query algorithm accepted")
	}
}
