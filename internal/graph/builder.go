package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst Vertex
}

// FromEdges builds a CSR graph with n vertices from an arbitrary edge
// list. Edges are grouped by source using a stable counting sort
// (O(n+m), no comparison sort), preserving duplicate edges; the paper's
// generators may emit multi-edges and the BFS must tolerate them. Large
// inputs run the parallel kernel (see SetBuildParallelism); the result
// is byte-identical either way. It returns an error if n is out of
// range or an endpoint exceeds n.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > MaxVertices {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", n, MaxVertices)
	}
	shards := buildShards(n, int64(len(edges)))
	if i, ok := checkEdgeBounds(n, edges, shards); !ok {
		e := edges[i]
		return nil, fmt.Errorf("graph: edge %d (%d->%d) exceeds vertex count %d", i, e.Src, e.Dst, n)
	}
	if shards == 1 {
		return fromEdgesSerial(n, edges), nil
	}
	offsets, targets := parallelCSR(n, int64(len(edges)), shards, 1,
		func(_ int, lo, hi int64, deg []int32) {
			for _, e := range edges[lo:hi] {
				deg[e.Src]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			for _, e := range edges[lo:hi] {
				p := cur[e.Src]
				cur[e.Src] = p + 1
				out[p] = e.Dst
			}
		})
	return &Graph{offsets: offsets, targets: targets}, nil
}

// fromEdgesSerial is the serial reference counting sort. The offsets
// array doubles as the scatter cursor (each bucket's start is bumped
// as it fills, leaving offsets shifted one bucket left), then one
// overlapping copy restores it — no separate cursor allocation.
func fromEdgesSerial(n int, edges []Edge) *Graph {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]Vertex, len(edges))
	for _, e := range edges {
		p := offsets[e.Src]
		offsets[e.Src] = p + 1
		targets[p] = e.Dst
	}
	restoreOffsets(offsets, n)
	return &Graph{offsets: offsets, targets: targets}
}

// restoreOffsets undoes the offsets-as-cursor trick: after a scatter
// that advanced each bucket's slot, offsets[v] holds the original
// offsets[v+1]; shift right and re-seat offsets[0].
func restoreOffsets(offsets []int64, n int) {
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
}

// FromArrays builds a CSR graph with n vertices from parallel
// source/target arrays (edge i is srcs[i] -> dsts[i]), avoiding the
// []Edge intermediate for large m. Generators use this path. The edge
// order semantics match FromEdges.
func FromArrays(n int, srcs, dsts []Vertex) (*Graph, error) {
	if n < 0 || n > MaxVertices {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", n, MaxVertices)
	}
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: source count %d != target count %d", len(srcs), len(dsts))
	}
	shards := buildShards(n, int64(len(srcs)))
	if i, ok := checkArrayBounds(n, srcs, dsts, shards); !ok {
		return nil, fmt.Errorf("graph: edge %d (%d->%d) exceeds vertex count %d", i, srcs[i], dsts[i], n)
	}
	if shards == 1 {
		return fromArraysSerial(n, srcs, dsts), nil
	}
	offsets, targets := parallelCSR(n, int64(len(srcs)), shards, 1,
		func(_ int, lo, hi int64, deg []int32) {
			for _, s := range srcs[lo:hi] {
				deg[s]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			for i := lo; i < hi; i++ {
				s := srcs[i]
				p := cur[s]
				cur[s] = p + 1
				out[p] = dsts[i]
			}
		})
	return &Graph{offsets: offsets, targets: targets}, nil
}

func fromArraysSerial(n int, srcs, dsts []Vertex) *Graph {
	offsets := make([]int64, n+1)
	for _, s := range srcs {
		offsets[s+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]Vertex, len(dsts))
	for i, s := range srcs {
		p := offsets[s]
		offsets[s] = p + 1
		targets[p] = dsts[i]
	}
	restoreOffsets(offsets, n)
	return &Graph{offsets: offsets, targets: targets}
}

// AppendEdges returns a new graph that holds g's edges followed by the
// edges srcs[i] -> dsts[i], grown to cover any endpoint beyond g's
// vertex range. It builds through FromArrays, so each row lists g's
// targets in g's order and then the appended ones in theirs. The
// result is flagged Symmetric when g is and the appended edges equal
// their own reverse as a multiset: every (u, v) matched by a (v, u)
// with the same multiplicity, a self-loop matching itself. The check
// sorts two key copies of the appended edges, O(k log k) in their
// count k; an unflagged g skips it. It is a function, not a method,
// because mcbfs.Graph aliases Graph, whose methods are public API.
func AppendEdges(g *Graph, srcs, dsts []Vertex) (*Graph, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: source count %d != target count %d", len(srcs), len(dsts))
	}
	n := g.NumVertices()
	for i := range srcs {
		n = max(n, int(srcs[i])+1, int(dsts[i])+1)
	}
	m := g.NumEdges()
	allS := make([]Vertex, m+int64(len(srcs)))
	allD := make([]Vertex, len(allS))
	for v := 0; v < g.NumVertices(); v++ {
		row := allS[g.offsets[v]:g.offsets[v+1]]
		for i := range row {
			row[i] = Vertex(v)
		}
	}
	copy(allD, g.targets)
	copy(allS[m:], srcs)
	copy(allD[m:], dsts)
	out, err := FromArrays(n, allS, allD)
	if err != nil {
		return nil, err
	}
	out.symmetric = g.symmetric && pairsUp(srcs, dsts)
	return out, nil
}

// pairsUp reports whether the edge multiset srcs[i] -> dsts[i] equals
// its reverse: sorted, its u<<32|v keys and its v<<32|u keys are the
// same sequence.
func pairsUp(srcs, dsts []Vertex) bool {
	fwd := make([]uint64, len(srcs))
	rev := make([]uint64, len(srcs))
	for i := range srcs {
		u, v := uint64(srcs[i]), uint64(dsts[i])
		fwd[i], rev[i] = u<<32|v, v<<32|u
	}
	slices.Sort(fwd)
	slices.Sort(rev)
	return slices.Equal(fwd, rev)
}

// FromAdjacency builds a graph from explicit adjacency lists. It is a
// convenience for tests and examples; adj[v] lists the out-neighbours of
// v. It returns an error if a neighbour id is out of range.
func FromAdjacency(adj [][]Vertex) (*Graph, error) {
	n := len(adj)
	offsets := make([]int64, n+1)
	for v, nbrs := range adj {
		offsets[v+1] = offsets[v] + int64(len(nbrs))
	}
	targets := make([]Vertex, 0, offsets[n])
	for v, nbrs := range adj {
		for _, w := range nbrs {
			if int(w) >= n {
				return nil, fmt.Errorf("graph: neighbour %d of vertex %d out of range", w, v)
			}
			targets = append(targets, w)
		}
	}
	return &Graph{offsets: offsets, targets: targets}, nil
}

// FromCSR wraps pre-built CSR arrays in a Graph without copying. The
// arrays must satisfy the invariants checked by Validate; FromCSR
// verifies them and returns an error otherwise.
func FromCSR(offsets []int64, targets []Vertex) (*Graph, error) {
	g := &Graph{offsets: offsets, targets: targets}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Transpose returns the graph with every edge reversed. For an
// undirected graph (every edge paired with its reverse) the transpose
// equals the original up to adjacency ordering. Large graphs transpose
// in parallel (see SetBuildParallelism) with output byte-identical to
// the serial path.
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	m := g.NumEdges()
	shards := buildShards(n, m)
	if shards == 1 {
		return g.transposeSerial()
	}
	offsets, targets := parallelCSR(n, m, shards, 1,
		func(_ int, lo, hi int64, deg []int32) {
			for _, t := range g.targets[lo:hi] {
				deg[t]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			u := g.vertexAt(lo)
			for i := lo; i < hi; i++ {
				for g.offsets[u+1] <= i {
					u++
				}
				t := g.targets[i]
				p := cur[t]
				cur[t] = p + 1
				out[p] = Vertex(u)
			}
		})
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}
}

func (g *Graph) transposeSerial() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for _, t := range g.targets {
		offsets[t+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]Vertex, len(g.targets))
	for u := 0; u < n; u++ {
		for _, t := range g.targets[g.offsets[u]:g.offsets[u+1]] {
			p := offsets[t]
			offsets[t] = p + 1
			targets[p] = Vertex(u)
		}
	}
	restoreOffsets(offsets, n)
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}
}

// Undirected returns a graph in which every edge of g is paired with its
// reverse. Duplicate pairs are not removed: if g already contains both
// directions of an edge, the result contains both twice. Use
// Deduplicate afterwards if a simple graph is needed. The result is
// flagged Symmetric.
func (g *Graph) Undirected() *Graph {
	n := g.NumVertices()
	m2 := 2 * g.NumEdges()
	shards := buildShards(n, m2)
	if shards == 1 {
		return g.undirectedSerial()
	}
	// The virtual edge sequence has 2m entries: entry 2j is edge j
	// forward (u->v), entry 2j+1 its reverse (v->u), matching the
	// serial interleaving exactly. Shard boundaries are aligned to 2 so
	// every shard owns whole pairs.
	offsets, targets := parallelCSR(n, m2, shards, 2,
		func(_ int, lo, hi int64, deg []int32) {
			u := g.vertexAt(lo / 2)
			for j := lo / 2; j < hi/2; j++ {
				for g.offsets[u+1] <= j {
					u++
				}
				deg[u]++
				deg[g.targets[j]]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			u := g.vertexAt(lo / 2)
			for j := lo / 2; j < hi/2; j++ {
				for g.offsets[u+1] <= j {
					u++
				}
				v := g.targets[j]
				p := cur[u]
				cur[u] = p + 1
				out[p] = v
				q := cur[v]
				cur[v] = q + 1
				out[q] = Vertex(u)
			}
		})
	return &Graph{offsets: offsets, targets: targets, symmetric: true}
}

func (g *Graph) undirectedSerial() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(Vertex(u)) {
			offsets[u+1]++
			offsets[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]Vertex, offsets[n])
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(Vertex(u)) {
			p := offsets[u]
			offsets[u] = p + 1
			targets[p] = v
			q := offsets[v]
			offsets[v] = q + 1
			targets[q] = Vertex(u)
		}
	}
	restoreOffsets(offsets, n)
	return &Graph{offsets: offsets, targets: targets, symmetric: true}
}

// Deduplicate returns a copy of g with each adjacency list sorted and
// duplicate edges and self-loops removed. Vertex ranges (balanced by
// edge count) are processed in parallel for large graphs; the output is
// the canonical sorted simple graph either way.
func (g *Graph) Deduplicate() *Graph {
	n := g.NumVertices()
	m := g.NumEdges()
	shards := buildShards(n, m)
	if shards == 1 {
		return g.deduplicateSerial()
	}
	// Edge-balanced contiguous vertex ranges: range r starts at the
	// vertex owning edge m*r/S, so a hub-heavy prefix does not serialize
	// the sort work.
	bounds := make([]int, shards+1)
	for r := 1; r < shards; r++ {
		bounds[r] = g.vertexAt(m * int64(r) / int64(shards))
	}
	bounds[shards] = n
	offsets := make([]int64, n+1)
	bufs := make([][]Vertex, shards)
	var wg sync.WaitGroup
	for r := 0; r < shards; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vlo, vhi := bounds[r], bounds[r+1]
			buf := make([]Vertex, 0, g.offsets[vhi]-g.offsets[vlo])
			var scratch []Vertex
			for u := vlo; u < vhi; u++ {
				before := len(buf)
				buf, scratch = appendDeduped(buf, scratch, Vertex(u), g.Neighbors(Vertex(u)))
				offsets[u+1] = int64(len(buf) - before) // degree; prefixed below
			}
			bufs[r] = buf
		}(r)
	}
	wg.Wait()
	bases := make([]int64, shards+1)
	for r := 0; r < shards; r++ {
		bases[r+1] = bases[r] + int64(len(bufs[r]))
	}
	targets := make([]Vertex, bases[shards])
	for r := 0; r < shards; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			copy(targets[bases[r]:], bufs[r])
			running := bases[r]
			for u := bounds[r]; u < bounds[r+1]; u++ {
				running += offsets[u+1]
				offsets[u+1] = running
			}
		}(r)
	}
	wg.Wait()
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}
}

func (g *Graph) deduplicateSerial() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	targets := make([]Vertex, 0, len(g.targets))
	var scratch []Vertex
	for u := 0; u < n; u++ {
		targets, scratch = appendDeduped(targets, scratch, Vertex(u), g.Neighbors(Vertex(u)))
		offsets[u+1] = int64(len(targets))
	}
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}
}

// appendDeduped appends u's neighbours to dst sorted, with duplicates
// and the self-loop removed, reusing scratch for the sort.
func appendDeduped(dst, scratch []Vertex, u Vertex, nbrs []Vertex) ([]Vertex, []Vertex) {
	scratch = append(scratch[:0], nbrs...)
	slices.Sort(scratch)
	var prev Vertex
	first := true
	for _, v := range scratch {
		if v == u {
			continue // self-loop
		}
		if !first && v == prev {
			continue // duplicate
		}
		dst = append(dst, v)
		prev, first = v, false
	}
	return dst, scratch
}

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm
// must be a permutation of [0, n). Relabeling is how the harness breaks
// the artificial locality of synthetic generators (the paper's random
// graphs have no locality by construction; a grid does).
func (g *Graph) Relabel(perm []Vertex) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != vertex count %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	m := g.NumEdges()
	shards := buildShards(n, m)
	if shards == 1 {
		return g.relabelSerial(perm), nil
	}
	offsets, targets := parallelCSR(n, m, shards, 1,
		func(_ int, lo, hi int64, deg []int32) {
			if lo >= hi {
				return
			}
			u := g.vertexAt(lo)
			pu := perm[u]
			for i := lo; i < hi; i++ {
				if g.offsets[u+1] <= i {
					for g.offsets[u+1] <= i {
						u++
					}
					pu = perm[u]
				}
				deg[pu]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			if lo >= hi {
				return
			}
			u := g.vertexAt(lo)
			pu := perm[u]
			for i := lo; i < hi; i++ {
				if g.offsets[u+1] <= i {
					for g.offsets[u+1] <= i {
						u++
					}
					pu = perm[u]
				}
				p := cur[pu]
				cur[pu] = p + 1
				out[p] = perm[g.targets[i]]
			}
		})
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}, nil
}

func (g *Graph) relabelSerial(perm []Vertex) *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		offsets[perm[u]+1] = int64(g.Degree(Vertex(u)))
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]Vertex, len(g.targets))
	for u := 0; u < n; u++ {
		pos := offsets[perm[u]]
		for _, v := range g.Neighbors(Vertex(u)) {
			targets[pos] = perm[v]
			pos++
		}
	}
	return &Graph{offsets: offsets, targets: targets, symmetric: g.symmetric}
}
