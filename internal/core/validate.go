package core

import (
	"fmt"

	"mcbfs/internal/bitmap"
	"mcbfs/internal/graph"
)

// ValidateTree checks that parents encodes a correct BFS tree of g
// rooted at root:
//
//  1. the root is its own parent;
//  2. every reached vertex's parent edge exists in g;
//  3. the set of reached vertices is exactly the set reachable from
//     root;
//  4. tree depths are BFS depths: depth(v) = dist(root, v) for every
//     reached v — the property that separates breadth-first trees from
//     arbitrary spanning trees.
//
// It recomputes distances with an independent serial BFS and checks
// every parent edge in one sweep over the CSR, so it is O(n + m)
// whatever the degrees, and usable on every graph the tests generate.
func ValidateTree(g *graph.Graph, root graph.Vertex, parents []uint32) error {
	n := g.NumVertices()
	if len(parents) != n {
		return fmt.Errorf("core: parents length %d != vertex count %d", len(parents), n)
	}
	if parents[root] != uint32(root) {
		return fmt.Errorf("core: root %d has parent %d, want itself", root, parents[root])
	}

	// Reference distances by serial BFS.
	const unreached = -1
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[root] = 0
	frontier := []uint32{uint32(root)}
	for len(frontier) > 0 {
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.Neighbors(graph.Vertex(u)) {
				if dist[v] == unreached {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}

	// One sweep over the CSR marks every vertex whose parent edge
	// parents[v] -> v is present: v appears in its parent's row. A
	// HasEdge per child would scan the parent's whole row for each of
	// its children, which is quadratic in a hub's degree.
	parentEdge := bitmap.New(n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if parents[v] == uint32(u) {
				parentEdge.Set(int(v))
			}
		}
	}

	// Check reachability agreement and parent-edge validity.
	for v := 0; v < n; v++ {
		p := parents[v]
		if dist[v] == unreached {
			if p != NoParent {
				return fmt.Errorf("core: unreachable vertex %d has parent %d", v, p)
			}
			continue
		}
		if p == NoParent {
			return fmt.Errorf("core: reachable vertex %d (dist %d) not in tree", v, dist[v])
		}
		if v == int(root) {
			continue
		}
		if int(p) >= n {
			return fmt.Errorf("core: vertex %d has out-of-range parent %d", v, p)
		}
		if !parentEdge.Get(v) {
			return fmt.Errorf("core: tree edge %d->%d not in graph", p, v)
		}
		if dist[v] != dist[p]+1 {
			return fmt.Errorf("core: vertex %d at distance %d has parent %d at distance %d; not a BFS tree",
				v, dist[v], p, dist[p])
		}
	}
	return nil
}

// TreeDepths returns the depth of every vertex in the parent tree
// (NoDepth for unreached vertices), computed by path-halving walks in
// O(n alpha) amortized. It does not verify BFS optimality; use
// ValidateTree for that.
func TreeDepths(parents []uint32, root graph.Vertex) []int32 {
	const NoDepth = -1
	n := len(parents)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = NoDepth
	}
	if n == 0 {
		return depth
	}
	depth[root] = 0
	var stack []uint32
	for v := 0; v < n; v++ {
		if parents[v] == NoParent || depth[v] != NoDepth {
			continue
		}
		// Walk up until a vertex with a known depth, then unwind.
		stack = stack[:0]
		u := uint32(v)
		for depth[u] == NoDepth {
			stack = append(stack, u)
			u = parents[u]
		}
		d := depth[u]
		for i := len(stack) - 1; i >= 0; i-- {
			d++
			depth[stack[i]] = d
		}
	}
	return depth
}

// NoDepth marks unreached vertices in TreeDepths output.
const NoDepth = int32(-1)
