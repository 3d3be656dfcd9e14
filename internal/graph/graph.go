// Package graph provides the compressed-sparse-row (CSR) graph storage
// used by every algorithm in this repository.
//
// CSR is the layout the SC'10 paper's BFS operates on: one contiguous
// offsets array of n+1 entries and one contiguous adjacency array of m
// entries. Scanning the adjacency list of a vertex is a sequential walk,
// which is the only spatial locality a BFS gets; everything else (parent
// array, bitmap, queue insertion) is a random access.
//
// Vertices are identified by uint32 (the paper's largest graph has 200
// million vertices; uint32 halves the adjacency footprint versus int64
// and doubles effective memory bandwidth). Edge counts and offsets use
// int64 because the paper's graphs reach a billion edges.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
)

// Vertex identifies a graph vertex. The zero vertex is a valid vertex.
type Vertex = uint32

// MaxVertices is the largest vertex count a Graph can hold.
const MaxVertices = 1 << 31

// Graph is an immutable directed graph in CSR form. Construct one with
// FromEdges, FromSorted, or a generator in package gen; the zero value is
// an empty graph with no vertices.
//
// A Graph is safe for concurrent readers; it is never mutated after
// construction.
type Graph struct {
	offsets []int64  // offsets[v]..offsets[v+1] index targets; len n+1
	targets []Vertex // adjacency array; len m
	// symmetric records that every edge (u, v) is matched by (v, u) with
	// the same multiplicity, so the graph is its own transpose. Only
	// constructions that guarantee it set it (see Symmetric).
	symmetric bool
}

// Symmetric reports whether g is known to hold every edge in both
// directions, so that its rows serve as in-edge lists. Undirected sets
// it; Relabel, Reorder, Deduplicate and Transpose keep it, and so does
// AppendEdges when the appended edges pair up. Every other
// constructor leaves it unset, even when the edges it was given happen
// to be symmetric, and graph files do not carry it: a false result
// means "not known", not "asymmetric".
func (g *Graph) Symmetric() bool { return g.symmetric }

// NumVertices returns the number of vertices n. Valid vertex ids are
// [0, n).
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges m.
func (g *Graph) NumEdges() int64 { return int64(len(g.targets)) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v as a subslice of the shared
// adjacency array. Callers must not modify it.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// Offsets returns the CSR offsets array (length NumVertices()+1).
// Callers must not modify it. It is exported for the experiment harness,
// which partitions work by edge ranges.
func (g *Graph) Offsets() []int64 { return g.offsets }

// Targets returns the CSR adjacency array. Callers must not modify it.
func (g *Graph) Targets() []Vertex { return g.targets }

// HasEdge reports whether the directed edge (u, v) exists. It is a
// linear scan of u's adjacency list and intended for tests and small
// graphs, not inner loops.
func (g *Graph) HasEdge(u, v Vertex) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants of the CSR arrays: offsets
// are monotonically non-decreasing, start at 0, end at NumEdges, and all
// targets are valid vertex ids. It returns a descriptive error for the
// first violation found.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.targets) != 0 {
			return errors.New("graph: edges present with zero vertices")
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.targets))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	for i, t := range g.targets {
		if int(t) >= n {
			return fmt.Errorf("graph: target %d at edge %d out of range [0,%d)", t, i, n)
		}
	}
	return nil
}

// Stats summarizes the degree distribution of a graph. The paper's two
// workload families differ exactly here: uniform graphs have a tight
// binomial degree distribution while R-MAT graphs have a few very high
// degree vertices and many low-degree ones.
type Stats struct {
	Vertices  int
	Edges     int64
	MinDegree int
	MaxDegree int
	AvgDegree float64
	Isolated  int // vertices with out-degree 0
}

// serialStatsThreshold is the vertex count below which ComputeStats and
// DegreeHistogram scan serially even when parallelism is available —
// the same goroutine-spawn crossover reasoning as
// serialBuildThreshold. A var so tests can force the parallel fold on
// tiny graphs.
var serialStatsThreshold int64 = 1 << 16

// ComputeStats scans the graph once and returns its degree statistics.
// Large graphs are scanned by BuildParallelism workers folding private
// partials, so the CLI startup cost (and the ordering heuristics that
// reuse it) scale with the search itself.
func (g *Graph) ComputeStats() Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	s.MinDegree = int(^uint(0) >> 1)
	workers := BuildParallelism()
	if workers <= 1 || int64(n) < serialStatsThreshold {
		for v := 0; v < n; v++ {
			d := g.Degree(Vertex(v))
			if d < s.MinDegree {
				s.MinDegree = d
			}
			if d > s.MaxDegree {
				s.MaxDegree = d
			}
			if d == 0 {
				s.Isolated++
			}
		}
		s.AvgDegree = float64(s.Edges) / float64(n)
		return s
	}
	type partial struct {
		min, max, isolated int
		_                  [40]byte // keep workers off each other's cache lines
	}
	parts := make([]partial, workers)
	parallelRange(int64(n), workers, func(w int, lo, hi int64) {
		p := partial{min: int(^uint(0) >> 1)}
		for v := lo; v < hi; v++ {
			d := int(g.offsets[v+1] - g.offsets[v])
			if d < p.min {
				p.min = d
			}
			if d > p.max {
				p.max = d
			}
			if d == 0 {
				p.isolated++
			}
		}
		parts[w] = p
	})
	for i := range parts {
		// A worker with an empty vertex range keeps min at MaxInt and
		// max at 0, so folding it is a no-op.
		if parts[i].min < s.MinDegree {
			s.MinDegree = parts[i].min
		}
		if parts[i].max > s.MaxDegree {
			s.MaxDegree = parts[i].max
		}
		s.Isolated += parts[i].isolated
	}
	s.AvgDegree = float64(s.Edges) / float64(n)
	return s
}

// degreeBuckets bounds the DegreeHistogram bucket index: degrees are at
// most NumEdges < 2^31, so bits.Len never exceeds 31 and bucket indices
// stay below 32.
const degreeBuckets = 33

// DegreeHistogram returns counts of vertices per degree bucket, where
// bucket i holds vertices with degree in [2^(i-1), 2^i) and bucket 0
// holds degree-0 vertices. It is used by the harness to display the
// power-law shape of R-MAT graphs. Like ComputeStats, large graphs fold
// per-worker partial histograms.
func (g *Graph) DegreeHistogram() []int64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	// bits.Len is exactly the bucket index: 0 for degree 0, and
	// [2^(i-1), 2^i) -> i for everything else.
	var hist [degreeBuckets]int64
	workers := BuildParallelism()
	if workers <= 1 || int64(n) < serialStatsThreshold {
		for v := 0; v < n; v++ {
			hist[bits.Len(uint(g.Degree(Vertex(v))))]++
		}
	} else {
		parts := make([][degreeBuckets]int64, workers)
		parallelRange(int64(n), workers, func(w int, lo, hi int64) {
			var p [degreeBuckets]int64
			for v := lo; v < hi; v++ {
				p[bits.Len(uint(g.offsets[v+1]-g.offsets[v]))]++
			}
			parts[w] = p
		})
		for i := range parts {
			for b, c := range parts[i] {
				hist[b] += c
			}
		}
	}
	top := 0
	for b, c := range hist {
		if c != 0 {
			top = b
		}
	}
	out := make([]int64, top+1)
	copy(out, hist[:top+1])
	return out
}

// MemoryFootprint returns the approximate number of bytes occupied by
// the CSR arrays. The paper reasons about working sets explicitly; the
// harness prints this alongside each experiment.
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.targets))*4
}
