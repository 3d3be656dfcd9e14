package graph

import (
	"bytes"
	"fmt"
	"testing"

	"mcbfs/internal/rng"
)

// symmetricPaths runs fn once on the serial build path and once with
// the parallel kernel forced on every input size.
func symmetricPaths(t *testing.T, fn func(t *testing.T, path string)) {
	t.Helper()
	fn(t, "serial")
	restore := forceParallel(t, 4)
	defer restore()
	fn(t, "parallel")
}

// TestSymmetricFlagSetAndKept checks where the Symmetric flag comes
// from and where it survives, on both build paths: Undirected sets it;
// Relabel, every Reorder, Deduplicate and Transpose keep it on a
// flagged graph and leave an unflagged one unflagged. The flagged
// graphs are also checked to really be their own transposes.
func TestSymmetricFlagSetAndKept(t *testing.T) {
	symmetricPaths(t, func(t *testing.T, path string) {
		r := rng.New(5)
		directed := must(t)(FromEdges(300, randomEdges(r, 300, 2000)))
		if directed.Symmetric() {
			t.Fatalf("%s: FromEdges flagged its graph", path)
		}
		und := directed.Undirected()
		if !und.Symmetric() {
			t.Fatalf("%s: Undirected did not flag its graph", path)
		}
		perm := randomPerm(r, 300)
		for _, tc := range []struct {
			name string
			fn   func(*Graph) *Graph
		}{
			{"Relabel", func(g *Graph) *Graph { return must(t)(g.Relabel(perm)) }},
			{"Deduplicate", (*Graph).Deduplicate},
			{"Transpose", (*Graph).Transpose},
			{"Reorder(degree)", reorderedBy(t, OrderDegree)},
			{"Reorder(degree-group)", reorderedBy(t, OrderDegreeGroup)},
			{"Reorder(bfs)", reorderedBy(t, OrderBFS)},
			{"Reorder(natural)", reorderedBy(t, OrderNatural)},
		} {
			label := fmt.Sprintf("%s %s", path, tc.name)
			kept := tc.fn(und)
			if !kept.Symmetric() {
				t.Errorf("%s dropped the flag", label)
			}
			if !sameGraphUnordered(kept, kept.Transpose()) {
				t.Errorf("%s: a flagged graph is not its own transpose", label)
			}
			if tc.fn(directed).Symmetric() {
				t.Errorf("%s flagged the result of an unflagged graph", label)
			}
		}
	})
}

// reorderedBy returns a graph transform that applies Reorder(o).
func reorderedBy(t *testing.T, o Ordering) func(*Graph) *Graph {
	return func(g *Graph) *Graph {
		rd, err := g.Reorder(o)
		if err != nil {
			t.Fatal(err)
		}
		return rd.Graph
	}
}

// must returns a helper that fails t on a constructor error.
func must(t *testing.T) func(*Graph, error) *Graph {
	return func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestSymmetricFlagNotClaimedByOtherConstructors builds symmetric edge
// sets through every other constructor: none may flag the result,
// because none checks symmetry. Graph files do not carry the flag
// either — a corrupt or hand-edited file could otherwise claim it —
// so a flagged graph read back is unflagged.
func TestSymmetricFlagNotClaimedByOtherConstructors(t *testing.T) {
	symmetricPaths(t, func(t *testing.T, path string) {
		und := must(t)(FromEdges(300, randomEdges(rng.New(6), 300, 2000))).Undirected()
		var edges []Edge
		var srcs, dsts []Vertex
		adj := make([][]Vertex, und.NumVertices())
		for u := 0; u < und.NumVertices(); u++ {
			for _, v := range und.Neighbors(Vertex(u)) {
				edges = append(edges, Edge{Src: Vertex(u), Dst: v})
				srcs, dsts = append(srcs, Vertex(u)), append(dsts, v)
				adj[u] = append(adj[u], v)
			}
		}
		var buf bytes.Buffer
		if _, err := und.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			g    *Graph
		}{
			{"FromEdges", must(t)(FromEdges(und.NumVertices(), edges))},
			{"FromArrays", must(t)(FromArrays(und.NumVertices(), srcs, dsts))},
			{"FromAdjacency", must(t)(FromAdjacency(adj))},
			{"FromCSR", must(t)(FromCSR(und.Offsets(), und.Targets()))},
			{"ReadFrom", must(t)(ReadFrom(&buf))},
		} {
			if !sameGraph(tc.g, und) {
				t.Fatalf("%s %s: rebuilt graph differs from the original", path, tc.name)
			}
			if tc.g.Symmetric() {
				t.Errorf("%s %s flagged its graph", path, tc.name)
			}
		}
	})
}
