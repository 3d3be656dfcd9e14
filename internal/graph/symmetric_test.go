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

// TestAppendEdgesSymmetricFlag checks AppendEdges on both build paths:
// the result holds exactly the CSR that FromArrays builds from g's
// edges followed by the appended ones, and it keeps the Symmetric flag
// only when g has it and the appended multiset equals its reverse.
func TestAppendEdgesSymmetricFlag(t *testing.T) {
	symmetricPaths(t, func(t *testing.T, path string) {
		r := rng.New(7)
		directed := must(t)(FromEdges(200, randomEdges(r, 200, 1500)))
		und := directed.Undirected()
		for _, tc := range []struct {
			name       string
			g          *Graph
			srcs, dsts []Vertex
			want       bool
		}{
			// Pairs in any order, a repeated pair, a self-loop, and a new
			// vertex 250 that grows the graph.
			{"paired", und, []Vertex{3, 250, 9, 3, 250, 7, 9}, []Vertex{9, 7, 3, 9, 250, 250, 3}, true},
			{"one direction only", und, []Vertex{3, 250}, []Vertex{9, 7}, false},
			{"unequal multiplicities", und, []Vertex{3, 3, 9}, []Vertex{9, 9, 3}, false},
			{"unflagged base", directed, []Vertex{3, 9}, []Vertex{9, 3}, false},
			{"nothing appended", und, nil, nil, true},
		} {
			label := fmt.Sprintf("%s %s", path, tc.name)
			got, err := AppendEdges(tc.g, tc.srcs, tc.dsts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var srcs, dsts []Vertex
			for u := 0; u < tc.g.NumVertices(); u++ {
				for _, v := range tc.g.Neighbors(Vertex(u)) {
					srcs, dsts = append(srcs, Vertex(u)), append(dsts, v)
				}
			}
			n := tc.g.NumVertices()
			for i := range tc.srcs {
				n = max(n, int(tc.srcs[i])+1, int(tc.dsts[i])+1)
			}
			want := must(t)(FromArrays(n, append(srcs, tc.srcs...), append(dsts, tc.dsts...)))
			if !identical(got, want) {
				t.Fatalf("%s: the result differs from FromArrays over the concatenated edges", label)
			}
			if got.Symmetric() != tc.want {
				t.Errorf("%s: Symmetric() = %v, want %v", label, got.Symmetric(), tc.want)
			}
			if got.Symmetric() && !sameGraphUnordered(got, got.Transpose()) {
				t.Errorf("%s: a flagged graph is not its own transpose", label)
			}
		}
		if _, err := AppendEdges(und, []Vertex{1}, nil); err == nil {
			t.Errorf("%s: mismatched source and target counts accepted", path)
		}
	})
}
