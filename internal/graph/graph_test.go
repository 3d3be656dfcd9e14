package graph

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"mcbfs/internal/rng"
)

// diamond returns the 4-vertex graph 0->1, 0->2, 1->3, 2->3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("zero graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("zero graph invalid: %v", err)
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantDeg := []int{2, 1, 1, 0}
	for v, d := range wantDeg {
		if g.Degree(Vertex(v)) != d {
			t.Errorf("Degree(%d) = %d, want %d", v, g.Degree(Vertex(v)), d)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(1, 3) || !g.HasEdge(2, 3) {
		t.Error("expected edge missing")
	}
	if g.HasEdge(3, 0) || g.HasEdge(1, 2) {
		t.Error("unexpected edge present")
	}
}

func TestFromEdgesPreservesDuplicates(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 3 {
		t.Errorf("Degree(0) = %d, want 3 (duplicates preserved)", g.Degree(0))
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}); err == nil {
		t.Error("edge to vertex 2 in 2-vertex graph accepted")
	}
	if _, err := FromEdges(2, []Edge{{5, 0}}); err == nil {
		t.Error("edge from vertex 5 in 2-vertex graph accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestFromEdgesIsolatedVertices(t *testing.T) {
	g, err := FromEdges(10, []Edge{{0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 1 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	for v := 1; v < 9; v++ {
		if g.Degree(Vertex(v)) != 0 {
			t.Errorf("vertex %d has degree %d, want 0", v, g.Degree(Vertex(v)))
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]Vertex{{1, 2}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if _, err := FromAdjacency([][]Vertex{{5}}); err == nil {
		t.Error("out-of-range neighbour accepted")
	}
}

func TestFromCSRValidates(t *testing.T) {
	if _, err := FromCSR([]int64{0, 2, 1}, []Vertex{0, 0}); err == nil {
		t.Error("decreasing offsets accepted")
	}
	if _, err := FromCSR([]int64{0, 1}, []Vertex{7}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := FromCSR([]int64{0, 1}, []Vertex{0}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(t)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose changed edge count")
	}
	for _, e := range []Edge{{1, 0}, {2, 0}, {3, 1}, {3, 2}} {
		if !tr.HasEdge(e.Src, e.Dst) {
			t.Errorf("transpose missing edge %d->%d", e.Src, e.Dst)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Double transpose restores each adjacency list as a multiset; the
	// within-list order is not preserved.
	g := randomGraph(t, 100, 500, 42)
	tt := g.Transpose().Transpose()
	if !sameGraphUnordered(g, tt) {
		t.Error("double transpose differs from original")
	}
}

// sameGraphUnordered compares adjacency lists as multisets.
func sameGraphUnordered(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		na := append([]Vertex(nil), a.Neighbors(Vertex(v))...)
		nb := append([]Vertex(nil), b.Neighbors(Vertex(v))...)
		if len(na) != len(nb) {
			return false
		}
		sort.Slice(na, func(i, j int) bool { return na[i] < na[j] })
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func TestUndirected(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	if u.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", u.NumEdges())
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !u.HasEdge(e.Src, e.Dst) {
			t.Errorf("undirected graph missing %d->%d", e.Src, e.Dst)
		}
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeduplicate(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 0}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Deduplicate()
	if d.NumEdges() != 3 {
		t.Fatalf("NumEdges after dedup = %d, want 3", d.NumEdges())
	}
	if d.HasEdge(0, 0) {
		t.Error("self-loop survived Deduplicate")
	}
	if got := d.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want sorted [1 2]", got)
	}
}

func TestRelabel(t *testing.T) {
	g := diamond(t)
	// Swap 0<->3.
	perm := []Vertex{3, 1, 2, 0}
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{{3, 1}, {3, 2}, {1, 0}, {2, 0}} {
		if !r.HasEdge(e.Src, e.Dst) {
			t.Errorf("relabeled graph missing %d->%d", e.Src, e.Dst)
		}
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := diamond(t)
	if _, err := g.Relabel([]Vertex{0, 0, 1, 2}); err == nil {
		t.Error("duplicate in perm accepted")
	}
	if _, err := g.Relabel([]Vertex{0, 1}); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := g.Relabel([]Vertex{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range perm accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(t)
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 4 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 2 {
		t.Errorf("degree range = [%d,%d], want [0,2]", s.MinDegree, s.MaxDegree)
	}
	if s.AvgDegree != 1.0 {
		t.Errorf("AvgDegree = %v, want 1", s.AvgDegree)
	}
	if s.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1 (vertex 3)", s.Isolated)
	}
}

func TestDegreeHistogram(t *testing.T) {
	// degrees: 2,1,1,0 -> bucket0:1 (deg 0), bucket1:2 (deg 1), bucket2:1 (deg 2)
	g := diamond(t)
	h := g.DegreeHistogram()
	want := []int64{1, 2, 1}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	g := diamond(t)
	want := int64(5*8 + 4*4)
	if got := g.MemoryFootprint(); got != want {
		t.Errorf("MemoryFootprint = %d, want %d", got, want)
	}
}

func TestRoundTripIO(t *testing.T) {
	g := randomGraph(t, 1000, 5000, 7)
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer holds %d", n, buf.Len())
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Error("round-tripped graph differs")
	}
}

func TestRoundTripEmptyGraph(t *testing.T) {
	var g Graph
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Errorf("empty graph round-trip: %d vertices, %d edges", got.NumVertices(), got.NumEdges())
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a graph file at all......"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	g := randomGraph(t, 100, 300, 3)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadFrom(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	g := randomGraph(t, 200, 1000, 9)
	path := t.TempDir() + "/g.mcbf"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Error("Save/Load round trip differs")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope.mcbf"); err == nil {
		t.Error("missing file did not error")
	}
}

func TestQuickFromEdgesDegreeSum(t *testing.T) {
	// Property: sum of out-degrees equals edge count, and every edge is
	// findable from its source.
	f := func(raw []uint16) bool {
		const n = 64
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Vertex(raw[i] % n), Vertex(raw[i+1] % n)})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(Vertex(v)))
		}
		if sum != int64(len(edges)) {
			return false
		}
		for _, e := range edges {
			if !g.HasEdge(e.Src, e.Dst) {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposePreservesEdges(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		const n = 32
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Vertex(raw[i] % n), Vertex(raw[i+1] % n)})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		tr := g.Transpose()
		for _, e := range edges {
			if !tr.HasEdge(e.Dst, e.Src) {
				return false
			}
		}
		return tr.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIORoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 40
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Vertex(raw[i] % n), Vertex(raw[i+1] % n)})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a deterministic pseudo-random graph for tests.
func randomGraph(t *testing.T, n int, m int, seed uint64) *Graph {
	t.Helper()
	r := rng.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameGraph reports whether two graphs have identical CSR contents.
func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(Vertex(v)), b.Neighbors(Vertex(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func BenchmarkNeighborScan(b *testing.B) {
	r := rng.New(2)
	const n, m = 1 << 16, 1 << 20
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, w := range g.Neighbors(Vertex(i & (n - 1))) {
			sink += uint64(w)
		}
	}
	_ = sink
}
