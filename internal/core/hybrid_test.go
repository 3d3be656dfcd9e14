package core

import (
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// hybridFamilies are graphs that exercise both directions of the
// hybrid: power-law graphs trigger bottom-up in the dense middle,
// chains never leave top-down.
func hybridFamilies(t *testing.T) []struct {
	name string
	g    *graph.Graph
	root graph.Vertex
} {
	t.Helper()
	return []struct {
		name string
		g    *graph.Graph
		root graph.Vertex
	}{
		{"uniform", must(gen.Uniform(5000, 8, 21)), 0},
		{"rmat", must(gen.RMAT(12, 1<<15, gen.GTgraphDefaults, 22)), 1},
		{"chain", must(gen.Chain(200)), 0},
		{"star", must(gen.Star(1000)), 0},
		{"grid", must(gen.Grid(50, 60, 4)), 0},
		{"two-islands", must(graph.FromEdges(6, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5},
		})), 0},
	}
}

func TestDirectionOptimizingMatchesReference(t *testing.T) {
	for _, f := range hybridFamilies(t) {
		ref := run(t, f.g, f.root, Options{Algorithm: AlgSequential})
		for _, threads := range []int{1, 2, 4, 8} {
			res := run(t, f.g, f.root, Options{
				Algorithm: AlgDirectionOptimizing,
				Threads:   threads,
			})
			validate(t, f.g, res)
			if res.Reached != ref.Reached {
				t.Errorf("%s/t%d: Reached = %d, want %d", f.name, threads, res.Reached, ref.Reached)
			}
			if res.Levels != ref.Levels {
				t.Errorf("%s/t%d: Levels = %d, want %d", f.name, threads, res.Levels, ref.Levels)
			}
			// EdgesTraversed intentionally differs (early exit); it must
			// never exceed the top-down edge count plus the extra
			// conversion scans, and must be positive on non-trivial graphs.
			if ref.EdgesTraversed > 0 && res.EdgesTraversed <= 0 {
				t.Errorf("%s/t%d: no edges counted", f.name, threads)
			}
		}
	}
}

func TestDirectionOptimizingWithExplicitTranspose(t *testing.T) {
	g := must(gen.RMAT(11, 1<<14, gen.GTgraphDefaults, 9))
	gt := g.Transpose()
	res := run(t, g, 0, Options{
		Algorithm: AlgDirectionOptimizing,
		Threads:   4,
		Transpose: gt,
	})
	validate(t, g, res)
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	if res.Reached != ref.Reached {
		t.Errorf("Reached = %d, want %d", res.Reached, ref.Reached)
	}
}

func TestDirectionOptimizingSymmetricGraphSelfTranspose(t *testing.T) {
	g := must(gen.Grid(40, 40, 4)) // symmetric: g is its own transpose
	res := run(t, g, 0, Options{
		Algorithm: AlgDirectionOptimizing,
		Threads:   4,
		Transpose: g,
	})
	validate(t, g, res)
	if res.Reached != 1600 {
		t.Errorf("Reached = %d, want 1600", res.Reached)
	}
}

// TestDirectionOptimizingSymmetricFlagIsItsOwnTranspose runs the tier
// on an Undirected graph with Options.Transpose nil, in natural order
// and under every reordering: the session must use its own graph as
// the in-edges (no transpose computed, no relabel of one) and answer
// with the sequential tier's depths.
func TestDirectionOptimizingSymmetricFlagIsItsOwnTranspose(t *testing.T) {
	g := must(gen.RMAT(11, 1<<14, gen.GTgraphDefaults, 23)).Undirected()
	roots := sampleReorderRoots(g, 4)
	orders := append([]graph.Ordering{graph.OrderNatural}, reorderTestOrderings...)
	for _, o := range orders {
		s, err := NewSearcher(g, Options{Algorithm: AlgDirectionOptimizing, Threads: 3, Ordering: o})
		if err != nil {
			t.Fatal(err)
		}
		if s.gt != s.g {
			t.Errorf("%s: the session built a separate in-edge graph for a symmetric graph", o)
		}
		for _, root := range roots {
			res, err := s.BFS(root)
			if err != nil {
				t.Fatal(err)
			}
			ref := run(t, g, root, Options{Algorithm: AlgSequential})
			if res.Reached != ref.Reached || res.Levels != ref.Levels {
				t.Fatalf("%s root %d: reached/levels %d/%d, want %d/%d", o, root, res.Reached, res.Levels, ref.Reached, ref.Levels)
			}
			if err := ValidateTree(g, root, res.Parents); err != nil {
				t.Fatalf("%s root %d: %v", o, root, err)
			}
			got, want := TreeDepths(res.Parents, root), TreeDepths(ref.Parents, root)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s root %d: depth[%d] = %d, want %d", o, root, v, got[v], want[v])
				}
			}
		}
		s.Close()
	}
}

func TestDirectionOptimizingRejectsWrongTranspose(t *testing.T) {
	g := must(gen.Chain(10))
	wrong := must(gen.Chain(12))
	if _, err := BFS(g, 0, Options{Algorithm: AlgDirectionOptimizing, Transpose: wrong}); err == nil {
		t.Error("mismatched transpose accepted")
	}
}

// TestDirectionOptimizingSavesEdges verifies the point of the hybrid:
// on a dense random graph the scanned-edge count drops well below the
// top-down m_a.
func TestDirectionOptimizingSavesEdges(t *testing.T) {
	g := must(gen.Uniform(20000, 16, 5))
	topDown := run(t, g, 0, Options{Algorithm: AlgSingleSocket, Threads: 4})
	hybrid := run(t, g, 0, Options{Algorithm: AlgDirectionOptimizing, Threads: 4})
	validate(t, g, hybrid)
	if hybrid.EdgesTraversed >= topDown.EdgesTraversed {
		t.Errorf("hybrid scanned %d edges, top-down %d; expected a reduction",
			hybrid.EdgesTraversed, topDown.EdgesTraversed)
	}
	if float64(hybrid.EdgesTraversed) > 0.8*float64(topDown.EdgesTraversed) {
		t.Errorf("hybrid saved only %d of %d edges; expected a substantial cut",
			topDown.EdgesTraversed-hybrid.EdgesTraversed, topDown.EdgesTraversed)
	}
}

// TestDirectionOptimizingUsesNoAtomicsInBottomUp checks the headline
// property: in the dense levels the hybrid claims vertices without
// atomic operations.
func TestDirectionOptimizingUsesNoAtomicsInBottomUp(t *testing.T) {
	g := must(gen.Uniform(20000, 16, 6))
	hybrid := run(t, g, 0, Options{Algorithm: AlgDirectionOptimizing, Threads: 4, Instrument: true})
	topDown := run(t, g, 0, Options{Algorithm: AlgSingleSocket, Threads: 4, Instrument: true})
	var ha, ta int64
	for _, ls := range hybrid.PerLevel {
		ha += ls.AtomicOps
	}
	for _, ls := range topDown.PerLevel {
		ta += ls.AtomicOps
	}
	if ha >= ta {
		t.Errorf("hybrid used %d atomics, top-down %d; bottom-up should eliminate most", ha, ta)
	}
}

func TestDirectionOptimizingUnreachable(t *testing.T) {
	g := must(gen.Chain(10))
	res := run(t, g, 5, Options{Algorithm: AlgDirectionOptimizing, Threads: 4})
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

func TestDirectionOptimizingManyThreadsSmallGraph(t *testing.T) {
	g := must(gen.Star(100))
	res := run(t, g, 0, Options{Algorithm: AlgDirectionOptimizing, Threads: 32})
	validate(t, g, res)
	if res.Reached != 100 {
		t.Errorf("Reached = %d, want 100", res.Reached)
	}
}

// TestDirectionOptimizingFrontierPartition stresses the index-
// partitioned frontier build/clear: thread counts that do not divide
// the frontier evenly, and a hub whose discovery floods one level's CQ
// with vertices from every range, so the worker that sets a frontier
// bit is routinely not the worker that owns that vertex's range.
func TestDirectionOptimizingFrontierPartition(t *testing.T) {
	g := must(gen.RMAT(11, 1<<14, gen.Graph500Params, 9)).Undirected()
	ref := run(t, g, 2, Options{Algorithm: AlgSequential})
	for _, threads := range []int{2, 3, 5, 7, 11, 16} {
		res := run(t, g, 2, Options{Algorithm: AlgDirectionOptimizing, Threads: threads})
		validate(t, g, res)
		if res.Reached != ref.Reached || res.Levels != ref.Levels {
			t.Errorf("t%d: Reached/Levels = %d/%d, want %d/%d",
				threads, res.Reached, res.Levels, ref.Reached, ref.Levels)
		}
	}
}

func TestDirectionOptimizingString(t *testing.T) {
	if AlgDirectionOptimizing.String() != "direction-optimizing" {
		t.Errorf("String = %q", AlgDirectionOptimizing.String())
	}
}

// TestHybridDirectionsProduceValidTrees runs the direction-optimizing
// tier under each setting of the Direction hook — the alpha/beta rule,
// every level top down, and every level after the root's bottom up —
// and requires the reference vertex count, level count and a valid tree
// from each. Instrument's per-level phases show which levels ran bottom
// up: forced bottom up runs at least one such level, forced top down
// none, and then scans exactly the reference's edges.
func TestHybridDirectionsProduceValidTrees(t *testing.T) {
	for _, f := range hybridFamilies(t) {
		ref := run(t, f.g, f.root, Options{Algorithm: AlgSequential})
		for _, dc := range directions {
			prev := SetDirection(dc.dir)
			res := run(t, f.g, f.root, Options{Algorithm: AlgDirectionOptimizing, Threads: 4, Instrument: true})
			SetDirection(prev)
			validate(t, f.g, res)
			if res.Reached != ref.Reached || res.Levels != ref.Levels {
				t.Errorf("%s/%s: Reached/Levels = %d/%d, want %d/%d",
					f.name, dc.name, res.Reached, res.Levels, ref.Reached, ref.Levels)
			}
			bottomUp := 0
			for _, lb := range res.PerLevel {
				if lb.Phases[obs.PhaseBottomUpScan] > 0 {
					bottomUp++
				}
			}
			switch dc.dir {
			case DirectionTopDown:
				if bottomUp != 0 {
					t.Errorf("%s/%s: %d bottom-up levels ran", f.name, dc.name, bottomUp)
				}
				if res.EdgesTraversed != ref.EdgesTraversed {
					t.Errorf("%s/%s: EdgesTraversed = %d, want %d", f.name, dc.name, res.EdgesTraversed, ref.EdgesTraversed)
				}
			case DirectionBottomUp:
				if bottomUp == 0 {
					t.Errorf("%s/%s: no bottom-up level ran", f.name, dc.name)
				}
			}
		}
	}
}
