package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mcbfs"
)

// pathPlusTriangle is 0-1-2-3 plus the triangle 4-5-6, with vertex 7
// isolated:
//
//	0 - 1 - 2 - 3     4 - 5
//	                   \ /
//	                    6
func pathPlusTriangle() *csr {
	srcs := []uint32{0, 1, 2, 4, 5, 6}
	dsts := []uint32{1, 2, 3, 5, 6, 4}
	return buildCSR(8, srcs, dsts)
}

const np = mcbfs.NoParent

func TestReferenceCountsOnHandBuiltGraphs(t *testing.T) {
	g := pathPlusTriangle()
	r := newRef(g)
	for _, tc := range []struct {
		root      uint32
		maxLevels int
		want      scalars
	}{
		// From 0 the path's four vertices are expanded: degrees 1+2+2+1.
		{0, 0, scalars{reached: 4, levels: 4, edges: 6}},
		// Expanding depths 0 and 1 only; depth 2 is reached, not expanded.
		{0, 2, scalars{reached: 3, levels: 2, edges: 3}},
		{1, 0, scalars{reached: 4, levels: 3, edges: 6}},
		{4, 0, scalars{reached: 3, levels: 2, edges: 6}},
		// An isolated root expands itself and nothing else.
		{7, 0, scalars{reached: 1, levels: 1, edges: 0}},
	} {
		if err := r.run(tc.root, tc.maxLevels); err != nil {
			t.Fatal(err)
		}
		if got := r.scalars(); got != tc.want {
			t.Errorf("root %d maxLevels %d: got %+v, want %+v", tc.root, tc.maxLevels, got, tc.want)
		}
	}
	// A self-loop and a multi-edge each count in m_a as the program's
	// Undirected graph stores them: the loop twice, the pair both times.
	loops := buildCSR(2, []uint32{0, 0, 0}, []uint32{0, 1, 1})
	r = newRef(loops)
	if err := r.run(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.scalars(); got != (scalars{reached: 2, levels: 2, edges: 6}) {
		t.Errorf("self-loop and multi-edge: got %+v", got)
	}
}

func TestValidatorRejectsBadTrees(t *testing.T) {
	g := pathPlusTriangle()
	r := newRef(g)
	if err := r.run(0, 0); err != nil {
		t.Fatal(err)
	}
	good := []uint32{0, 0, 1, 2, np, np, np, np}
	if err := r.validateTree(0, good, np); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		parents []uint32
		want    string
	}{
		{"root not its own parent", []uint32{1, 0, 1, 2, np, np, np, np}, "own parent"},
		{"reached vertex missing", []uint32{0, 0, 1, np, np, np, np, np}, "not reached"},
		{"parent on an unreached vertex", []uint32{0, 0, 1, 2, 6, np, np, np}, "not reachable"},
		// 3's parent 1 is an ancestor, but two levels up, not one.
		{"wrong depth", []uint32{0, 0, 1, 1, np, np, np, np}, "different depth"},
		{"vertex beyond the graph", []uint32{0, 0, 1, 2, np, np, np, np, 3}, "outside"},
	} {
		err := r.validateTree(0, tc.parents, np)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A parent one level up that is not a neighbour: with edges 0-1,
	// 0-2 and 1-3, vertex 3 may only take parent 1; vertex 2 sits at the
	// right depth but 2-3 is no edge.
	fork := buildCSR(4, []uint32{0, 0, 1}, []uint32{1, 2, 3})
	r = newRef(fork)
	if err := r.run(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.validateTree(0, []uint32{0, 0, 0, 1}, np); err != nil {
		t.Fatalf("valid fork tree rejected: %v", err)
	}
	if err := r.validateTree(0, []uint32{0, 0, 0, 2}, np); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("non-neighbour parent: got %v", err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(append([]float64(nil), xs...)); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100 down to 1
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(append([]float64(nil), hundred...), tc.q); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	// A failed query counts as +Inf and so lands in the tail.
	withFail := append(append([]float64(nil), hundred[:99]...), math.Inf(1))
	if got := percentile(withFail, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestPrivateCSRMatchesProgramGraph(t *testing.T) {
	const scale = 10
	n := 1 << scale
	srcs, dsts := rmatEdges(scale, 16<<scale, 7)
	priv := buildCSR(n, srcs, dsts)
	g1, err := mcbfs.NewGraphFromArrays(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	g := g1.Undirected()
	if g.NumVertices() != n || g.NumEdges() != int64(len(priv.adj)) {
		t.Fatalf("program graph %d vertices %d entries, private %d/%d", g.NumVertices(), g.NumEdges(), n, len(priv.adj))
	}
	for v := 0; v < n; v++ {
		got := slices.Clone(g.Neighbors(mcbfs.Vertex(v)))
		slices.Sort(got)
		want := priv.nbrs(uint32(v))
		if len(got) != len(want) {
			t.Fatalf("vertex %d: program degree %d, private %d", v, len(got), len(want))
		}
		for i := range got {
			if uint32(got[i]) != want[i] {
				t.Fatalf("vertex %d: adjacency multisets differ", v)
			}
		}
	}
}

func TestReferenceMatchesProgramSearches(t *testing.T) {
	const scale = 11
	n := 1 << scale
	srcs, dsts := rmatEdges(scale, 16<<scale, 3)
	priv := buildCSR(n, srcs, dsts)
	g1, err := mcbfs.NewGraphFromArrays(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	g := g1.Undirected()
	r := newRef(priv)
	roots := pickRoots(priv, 64, 3, streamRoots)
	for _, maxLevels := range []int{0, 2} {
		s, err := mcbfs.NewSearcher(g, mcbfs.Options{Threads: 1, MaxLevels: maxLevels})
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range roots {
			res, err := s.Search(mcbfs.Vertex(root), mcbfs.Query{})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.run(root, maxLevels); err != nil {
				t.Fatal(err)
			}
			if err := checkScalars(root, r.scalars(), res.Reached, res.Levels, res.EdgesTraversed); err != nil {
				t.Errorf("maxLevels %d: %v", maxLevels, err)
			}
			if err := r.validateTree(root, res.Parents, mcbfs.NoParent); err != nil {
				t.Errorf("maxLevels %d root %d: %v", maxLevels, root, err)
			}
		}
		_ = s.Close()
	}

	// The lane ring validates a correct MS-BFS batch.
	bs, err := mcbfs.NewBatchSearcher(g, mcbfs.BatchOptions{Width: lanes, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	lr := newLaneRing(n)
	for l, root := range roots {
		if err := r.run(root, 0); err != nil {
			t.Fatal(err)
		}
		lr.store(l, root, r)
	}
	res, err := bs.Search(lr.roots[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.validateBatch(priv, res); err != nil {
		t.Errorf("correct batch rejected: %v", err)
	}
	// Lane 0 checked against another root's reference is rejected; r
	// still holds the last root's search.
	lr.store(0, roots[1], r)
	if err := lr.validateBatch(priv, res); err == nil {
		t.Error("batch checked against the wrong references was accepted")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a1, b1 := rmatEdges(8, 1000, 5)
	a2, b2 := rmatEdges(8, 1000, 5)
	a3, _ := rmatEdges(8, 1000, 6)
	if !slices.Equal(a1, a2) || !slices.Equal(b1, b2) {
		t.Error("same seed gave different edges")
	}
	if slices.Equal(a1, a3) {
		t.Error("different seeds gave the same edges")
	}
}
