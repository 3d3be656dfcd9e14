package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Locality-optimized vertex orderings.
//
// The natural Kronecker labeling of an R-MAT graph scatters hub
// neighborhoods across the whole CSR, so every top-down probe and
// bottom-up in-scan lands on a cold cache line. Relabeling vertices so
// that frequently-touched ones share lines (and pages) is a first-order
// BFS optimization on one socket: the visited bitmap, parent array, and
// adjacency prefix for the hubs all shrink to a cache-resident working
// set.
//
// Each ordering here is computed as a stable counting sort of the
// vertex ids by a small integer key, which is exactly the shape of the
// parallel CSR kernel (histogram, prefix sum, scatter) — vertices play
// the role of edges, keys the role of source ids — so permutation
// computation is parallel and atomic-free, and applying it is
// graph.Relabel on the same kernel.

// Ordering selects a vertex relabeling strategy.
type Ordering int

const (
	// OrderNatural keeps the input labeling; Reorder returns the graph
	// unchanged with a nil permutation.
	OrderNatural Ordering = iota
	// OrderDegree sorts vertices by descending out-degree, ties in
	// natural order. Hubs move to the front of every per-vertex array
	// (parents, bitmaps) and their adjacency lists pack the front of the
	// CSR, so the vertices a power-law BFS touches most share cache
	// lines.
	OrderDegree
	// OrderDegreeGroup ("dbg" on the command line) packs only the hubs —
	// vertices with at least twice the average degree — into a
	// degree-sorted prefix and keeps the low-degree tail in natural
	// order. On generators whose natural order already has spatial
	// structure this keeps the tail's locality while still making the
	// hub working set cache-resident.
	OrderDegreeGroup
	// OrderBFS ("rcm" on the command line) is a BFS/RCM-style level
	// order from a maximum-degree seed: vertices are numbered level by
	// level, natural order within a level, unreached vertices last.
	// Neighboring levels — the only vertices a level-synchronous BFS
	// touches together — become contiguous in memory.
	OrderBFS
)

// String returns the command-line name of the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderDegree:
		return "degree"
	case OrderDegreeGroup:
		return "dbg"
	case OrderBFS:
		return "rcm"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// ParseOrdering parses a command-line ordering name as accepted by the
// -order flags: natural, degree, dbg, or rcm.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "", "natural":
		return OrderNatural, nil
	case "degree":
		return OrderDegree, nil
	case "dbg":
		return OrderDegreeGroup, nil
	case "rcm", "bfs":
		return OrderBFS, nil
	}
	return OrderNatural, fmt.Errorf("graph: unknown ordering %q (want natural, degree, dbg, or rcm)", s)
}

// Reordered is a graph relabeled into a locality-optimized order,
// together with the permutation needed to translate between the two id
// spaces. For OrderNatural the permutation slices are nil and Graph is
// the input graph itself.
type Reordered struct {
	// Graph is the relabeled graph: original vertex v appears as
	// Perm[v].
	Graph *Graph
	// Perm maps original ids to relabeled ids; nil for OrderNatural.
	Perm []Vertex
	// Inv maps relabeled ids back to original ids: Inv[Perm[v]] == v.
	Inv []Vertex
	// Order is the ordering that produced this relabeling.
	Order Ordering
	// PermTime is the time spent computing the permutation; RelabelTime
	// the time spent rewriting the CSR through it. Reported separately
	// from graph construction so the amortization break-even is visible.
	PermTime    time.Duration
	RelabelTime time.Duration
	// HubVertices and HubEdges describe the hub prefix: how many
	// vertices have at least twice the average degree and how many edge
	// slots their adjacency lists occupy. For the degree orderings these
	// vertices occupy a contiguous CSR prefix after relabeling, so
	// HubEdges/NumEdges is the fraction of adjacency traffic served from
	// that prefix.
	HubVertices int
	HubEdges    int64
}

// ReorderTime returns the total cost of producing the reordering.
func (r *Reordered) ReorderTime() time.Duration { return r.PermTime + r.RelabelTime }

// Reorder computes the permutation for the given ordering and applies
// it, returning the relabeled graph and the (perm, inv) pair. The
// computation runs on BuildParallelism workers; the relabeling reuses
// the parallel CSR kernel. The input graph is not modified.
func (g *Graph) Reorder(o Ordering) (*Reordered, error) {
	if g == nil {
		return nil, errors.New("graph: nil graph")
	}
	n := g.NumVertices()
	if o == OrderNatural || n == 0 {
		return &Reordered{Graph: g, Order: o}, nil
	}
	rd := &Reordered{Order: o}
	start := time.Now()
	var inv []Vertex
	switch o {
	case OrderDegree, OrderDegreeGroup:
		inv = g.orderByDegree(o == OrderDegreeGroup, rd)
	case OrderBFS:
		inv = g.orderByBFSLevels()
		rd.HubVertices, rd.HubEdges = g.hubStats(hubThreshold(g.ComputeStats()))
	default:
		return nil, fmt.Errorf("graph: unknown ordering %d", int(o))
	}
	perm := make([]Vertex, n)
	invertPermutation(perm, inv)
	rd.Perm, rd.Inv = perm, inv
	rd.PermTime = time.Since(start)

	start = time.Now()
	rg, err := g.Relabel(perm)
	if err != nil {
		return nil, err
	}
	rd.Graph = rg
	rd.RelabelTime = time.Since(start)
	return rd, nil
}

// sortVerticesByKey stable counting-sorts the vertex ids 0..n-1 by
// key(v), which must lie in [0, nKeys). The returned slice is the
// inverse permutation: position i holds the original id of the vertex
// ranked i-th. Vertices stand in for the CSR kernel's edges and keys
// for its source ids, so the sort shares the histogram / prefix-sum /
// scatter phases (and the serial-threshold heuristics) with graph
// construction.
func sortVerticesByKey(n, nKeys int, key func(v int) int) []Vertex {
	shards := buildShards(nKeys, int64(n))
	if shards == 1 {
		counts := make([]int64, nKeys)
		for v := 0; v < n; v++ {
			counts[key(v)]++
		}
		var running int64
		for k := range counts {
			c := counts[k]
			counts[k] = running
			running += c
		}
		inv := make([]Vertex, n)
		for v := 0; v < n; v++ {
			k := key(v)
			inv[counts[k]] = Vertex(v)
			counts[k]++
		}
		return inv
	}
	_, inv := parallelCSR(nKeys, int64(n), shards, 1,
		func(_ int, lo, hi int64, deg []int32) {
			for v := lo; v < hi; v++ {
				deg[key(int(v))]++
			}
		},
		func(_ int, lo, hi int64, cur []int32, out []Vertex) {
			for v := lo; v < hi; v++ {
				k := key(int(v))
				p := cur[k]
				cur[k] = p + 1
				out[p] = Vertex(v)
			}
		})
	return inv
}

// invertPermutation fills perm with the inverse of inv:
// perm[inv[i]] = i.
func invertPermutation(perm, inv []Vertex) {
	n := int64(len(inv))
	workers := BuildParallelism()
	if workers <= 1 || n < serialBuildThreshold {
		for i, v := range inv {
			perm[v] = Vertex(i)
		}
		return
	}
	parallelRange(n, workers, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			perm[inv[i]] = Vertex(i)
		}
	})
}

// hubThreshold is the degree at which a vertex counts as a hub: twice
// the average degree, clamped to [1, max degree] so the definition
// stays meaningful on regular and near-empty graphs.
func hubThreshold(st Stats) int {
	t := int(2 * st.AvgDegree)
	if t < 1 {
		t = 1
	}
	if t > st.MaxDegree {
		t = st.MaxDegree
	}
	if t < 1 {
		t = 1
	}
	return t
}

// hubStats counts the vertices with degree >= hubT and the edge slots
// their adjacency lists occupy, folding per-worker partials.
func (g *Graph) hubStats(hubT int) (int, int64) {
	n := int64(g.NumVertices())
	workers := BuildParallelism()
	if workers <= 1 || n < serialBuildThreshold {
		var hv int
		var he int64
		for v := int64(0); v < n; v++ {
			if d := int(g.offsets[v+1] - g.offsets[v]); d >= hubT {
				hv++
				he += int64(d)
			}
		}
		return hv, he
	}
	type partial struct {
		hv int
		he int64
		_  [48]byte // separate cache lines so workers don't false-share
	}
	parts := make([]partial, workers)
	parallelRange(n, workers, func(w int, lo, hi int64) {
		var p partial
		for v := lo; v < hi; v++ {
			if d := int(g.offsets[v+1] - g.offsets[v]); d >= hubT {
				p.hv++
				p.he += int64(d)
			}
		}
		parts[w] = p
	})
	var hv int
	var he int64
	for i := range parts {
		hv += parts[i].hv
		he += parts[i].he
	}
	return hv, he
}

// orderByDegree returns the inverse permutation for OrderDegree
// (group=false) or OrderDegreeGroup (group=true). Both are one stable
// counting sort: the key is maxDeg-d so higher degrees sort first and
// the stable sort keeps equal-degree vertices in natural order. The
// grouped variant collapses every tail vertex (degree below the hub
// threshold) into one shared final bucket, so the stable sort leaves
// the entire tail in natural order.
func (g *Graph) orderByDegree(group bool, rd *Reordered) []Vertex {
	n := g.NumVertices()
	st := g.ComputeStats()
	maxDeg := st.MaxDegree
	hubT := hubThreshold(st)
	rd.HubVertices, rd.HubEdges = g.hubStats(hubT)

	offsets := g.offsets
	if !group {
		return sortVerticesByKey(n, maxDeg+1, func(v int) int {
			return maxDeg - int(offsets[v+1]-offsets[v])
		})
	}
	// Hub keys occupy [0, maxDeg-hubT]; every tail vertex shares the
	// single key after them.
	tailKey := maxDeg - hubT + 1
	return sortVerticesByKey(n, tailKey+1, func(v int) int {
		if d := int(offsets[v+1] - offsets[v]); d >= hubT {
			return maxDeg - d
		}
		return tailKey
	})
}

// orderByBFSLevels returns the inverse permutation for OrderBFS: a
// level-synchronous BFS from a maximum-degree seed assigns each vertex
// its depth, and a stable counting sort by depth produces the order.
// The frontier expansion is parallel and claims vertices with CAS, so
// the set of vertices per level is deterministic even though the
// discovery order within a level is not — the stable sort by level
// restores natural order within each level, making the whole
// permutation deterministic. Unreached vertices (other components)
// keep natural order in a final bucket.
func (g *Graph) orderByBFSLevels() []Vertex {
	n := g.NumVertices()
	levels, maxLevel := g.bfsLevels(g.maxDegreeVertex())
	unreachedKey := int(maxLevel) + 1
	return sortVerticesByKey(n, unreachedKey+1, func(v int) int {
		if l := levels[v]; l >= 0 {
			return int(l)
		}
		return unreachedKey
	})
}

// maxDegreeVertex returns the lowest-id vertex of maximum out-degree.
func (g *Graph) maxDegreeVertex() Vertex {
	n := int64(g.NumVertices())
	workers := BuildParallelism()
	if workers <= 1 || n < serialBuildThreshold {
		best, bestDeg := Vertex(0), int64(-1)
		for v := int64(0); v < n; v++ {
			if d := g.offsets[v+1] - g.offsets[v]; d > bestDeg {
				best, bestDeg = Vertex(v), d
			}
		}
		return best
	}
	type partial struct {
		best Vertex
		deg  int64
		_    [48]byte
	}
	parts := make([]partial, workers)
	parallelRange(n, workers, func(w int, lo, hi int64) {
		p := partial{deg: -1}
		for v := lo; v < hi; v++ {
			if d := g.offsets[v+1] - g.offsets[v]; d > p.deg {
				p.best, p.deg = Vertex(v), d
			}
		}
		parts[w] = p
	})
	best, bestDeg := Vertex(0), int64(-1)
	for i := range parts {
		// Ranges are in ascending vertex order, so > keeps the lowest id
		// among ties.
		if parts[i].deg > bestDeg {
			best, bestDeg = parts[i].best, parts[i].deg
		}
	}
	return best
}

// bfsLevels runs a level-synchronous BFS from seed and returns the
// depth of every vertex (-1 for unreached) and the deepest level
// reached. Large frontiers are expanded in parallel with CAS claims
// into per-worker next buffers; the buffers are concatenated in worker
// order, which is only used to drive the next expansion — the level
// values themselves are deterministic.
func (g *Graph) bfsLevels(seed Vertex) ([]int32, int32) {
	n := g.NumVertices()
	levels := make([]int32, n)
	workers := BuildParallelism()
	fill := func(_ int, lo, hi int64) {
		s := levels[lo:hi]
		for i := range s {
			s[i] = -1
		}
	}
	if workers <= 1 || int64(n) < serialBuildThreshold {
		fill(0, 0, int64(n))
	} else {
		parallelRange(int64(n), workers, fill)
	}

	const parallelFrontier = 1 << 10
	levels[seed] = 0
	cur := []Vertex{seed}
	var next []Vertex
	depth, maxLevel := int32(0), int32(0)
	for len(cur) > 0 {
		depth++
		next = next[:0]
		if workers <= 1 || len(cur) < parallelFrontier {
			for _, u := range cur {
				for _, w := range g.Neighbors(u) {
					if levels[w] == -1 {
						levels[w] = depth
						next = append(next, w)
					}
				}
			}
		} else {
			bufs := make([][]Vertex, workers)
			parallelRange(int64(len(cur)), workers, func(w int, lo, hi int64) {
				var buf []Vertex
				for _, u := range cur[lo:hi] {
					for _, t := range g.Neighbors(u) {
						if atomic.LoadInt32(&levels[t]) != -1 {
							continue
						}
						if atomic.CompareAndSwapInt32(&levels[t], -1, depth) {
							buf = append(buf, t)
						}
					}
				}
				bufs[w] = buf
			})
			for _, buf := range bufs {
				next = append(next, buf...)
			}
		}
		cur, next = next, cur
		if len(cur) > 0 {
			maxLevel = depth
		}
	}
	return levels, maxLevel
}
