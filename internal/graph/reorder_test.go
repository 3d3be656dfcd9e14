package graph

import (
	"testing"

	"mcbfs/internal/rng"
)

var allOrderings = []Ordering{OrderDegree, OrderDegreeGroup, OrderBFS}

// checkPermutation verifies that rd carries a valid (perm, inv) pair
// over n vertices: both are permutations of [0, n) and inverses of one
// another.
func checkPermutation(t *testing.T, rd *Reordered, n int) {
	t.Helper()
	if len(rd.Perm) != n || len(rd.Inv) != n {
		t.Fatalf("order %s: perm/inv lengths %d/%d, want %d", rd.Order, len(rd.Perm), len(rd.Inv), n)
	}
	seen := make([]bool, n)
	for v, p := range rd.Perm {
		if int(p) >= n {
			t.Fatalf("order %s: perm[%d] = %d out of range", rd.Order, v, p)
		}
		if seen[p] {
			t.Fatalf("order %s: perm maps two vertices to %d", rd.Order, p)
		}
		seen[p] = true
		if rd.Inv[p] != Vertex(v) {
			t.Fatalf("order %s: inv[perm[%d]] = %d, want %d", rd.Order, v, rd.Inv[p], v)
		}
	}
}

func TestReorderNatural(t *testing.T) {
	g := randomGraph(t, 100, 500, 1)
	rd, err := g.Reorder(OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Graph != g {
		t.Error("natural order should return the input graph")
	}
	if rd.Perm != nil || rd.Inv != nil {
		t.Error("natural order should carry nil permutations")
	}
	if rd.ReorderTime() != 0 {
		t.Errorf("natural order reported reorder time %v", rd.ReorderTime())
	}
}

// TestReorderNilGraph checks that every ordering, natural included,
// refuses a nil graph with an error, as the other entry points do.
func TestReorderNilGraph(t *testing.T) {
	var g *Graph
	for _, o := range append([]Ordering{OrderNatural}, allOrderings...) {
		if rd, err := g.Reorder(o); err == nil || rd != nil {
			t.Errorf("order %s: Reorder(nil) = %v, %v, want an error", o, rd, err)
		}
	}
}

// TestReorderEmpty checks every ordering on the zero-vertex graph:
// an empty relabeled graph and empty permutations.
func TestReorderEmpty(t *testing.T) {
	var g Graph
	for _, o := range allOrderings {
		rd, err := g.Reorder(o)
		if err != nil {
			t.Fatalf("order %s: %v", o, err)
		}
		if rd.Graph.NumVertices() != 0 || len(rd.Perm) != 0 || len(rd.Inv) != 0 {
			t.Errorf("order %s: empty graph mishandled", o)
		}
	}
}

// TestReorderPermutations checks, for every ordering over a sweep of
// random graphs, that the permutation pair is valid and the relabeled
// graph is exactly g.Relabel(perm).
func TestReorderPermutations(t *testing.T) {
	for seed, tc := range buildCases {
		if tc.n == 0 {
			continue
		}
		g := randomGraph(t, tc.n, tc.m, uint64(seed))
		for _, o := range allOrderings {
			rd, err := g.Reorder(o)
			if err != nil {
				t.Fatalf("n=%d m=%d order %s: %v", tc.n, tc.m, o, err)
			}
			checkPermutation(t, rd, tc.n)
			want, err := g.Relabel(rd.Perm)
			if err != nil {
				t.Fatal(err)
			}
			if !identical(rd.Graph, want) {
				t.Errorf("n=%d m=%d order %s: Reorder graph differs from Relabel(perm)", tc.n, tc.m, o)
			}
			if rd.HubVertices < 0 || rd.HubEdges < 0 || rd.HubEdges > g.NumEdges() {
				t.Errorf("n=%d m=%d order %s: implausible hub stats (%d vertices, %d edges)",
					tc.n, tc.m, o, rd.HubVertices, rd.HubEdges)
			}
		}
	}
}

// TestReorderDegreeProperties checks the ordering-specific shape:
// OrderDegree yields non-increasing degrees with equal-degree runs in
// natural order; OrderDegreeGroup packs exactly the hub vertices into a
// degree-sorted prefix and keeps the tail in natural order.
func TestReorderDegreeProperties(t *testing.T) {
	g := randomGraph(t, 257, 4096, 7)
	n := g.NumVertices()

	rd, err := g.Reorder(OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		di, dj := rd.Graph.Degree(Vertex(i-1)), rd.Graph.Degree(Vertex(i))
		if di < dj {
			t.Fatalf("degree order: position %d has degree %d after %d", i, dj, di)
		}
		if di == dj && rd.Inv[i-1] > rd.Inv[i] {
			t.Fatalf("degree order: equal-degree run not in natural order at %d", i)
		}
	}

	rd, err = g.Reorder(OrderDegreeGroup)
	if err != nil {
		t.Fatal(err)
	}
	hubT := hubThreshold(g.ComputeStats())
	for i := 0; i < n; i++ {
		orig := rd.Inv[i]
		if i < rd.HubVertices {
			if g.Degree(orig) < hubT {
				t.Fatalf("dbg: prefix position %d holds non-hub vertex %d (degree %d < %d)",
					i, orig, g.Degree(orig), hubT)
			}
			if i > 0 && rd.Graph.Degree(Vertex(i-1)) < rd.Graph.Degree(Vertex(i)) {
				t.Fatalf("dbg: hub prefix not degree-sorted at %d", i)
			}
		} else {
			if g.Degree(orig) >= hubT {
				t.Fatalf("dbg: tail position %d holds hub vertex %d", i, orig)
			}
			if i > rd.HubVertices && rd.Inv[i-1] > orig {
				t.Fatalf("dbg: tail not in natural order at %d", i)
			}
		}
	}
}

// TestReorderBFSLevels checks that OrderBFS numbers vertices in
// non-decreasing BFS depth from the max-degree seed, natural order
// within a level, unreached vertices last in natural order.
func TestReorderBFSLevels(t *testing.T) {
	g := randomGraph(t, 257, 2048, 9)
	rd, err := g.Reorder(OrderBFS)
	if err != nil {
		t.Fatal(err)
	}
	levels, _ := g.bfsLevels(g.maxDegreeVertex())
	key := func(v Vertex) int32 {
		if l := levels[v]; l >= 0 {
			return l
		}
		return 1 << 30 // unreached sorts after every real level
	}
	for i := 1; i < len(rd.Inv); i++ {
		a, b := rd.Inv[i-1], rd.Inv[i]
		ka, kb := key(a), key(b)
		if ka > kb {
			t.Fatalf("rcm: level %d precedes level %d at position %d", ka, kb, i)
		}
		if ka == kb && a > b {
			t.Fatalf("rcm: natural order violated within level %d at position %d", ka, i)
		}
	}
}

// TestReorderParallelMatchesSerial forces the parallel kernels (sort,
// inversion, stats, BFS levels) onto tiny graphs and checks the
// permutations are identical to the serial ones.
func TestReorderParallelMatchesSerial(t *testing.T) {
	serial := make(map[int]map[Ordering][]Vertex)
	for seed, tc := range buildCases {
		if tc.n == 0 {
			continue
		}
		g := randomGraph(t, tc.n, tc.m, uint64(seed))
		serial[seed] = make(map[Ordering][]Vertex)
		for _, o := range allOrderings {
			rd, err := g.Reorder(o)
			if err != nil {
				t.Fatal(err)
			}
			serial[seed][o] = rd.Perm
		}
	}
	for _, workers := range []int{2, 3, 7} {
		restore := forceParallel(t, workers)
		oldStats := serialStatsThreshold
		serialStatsThreshold = 0
		for seed, tc := range buildCases {
			if tc.n == 0 {
				continue
			}
			g := randomGraph(t, tc.n, tc.m, uint64(seed))
			for _, o := range allOrderings {
				rd, err := g.Reorder(o)
				if err != nil {
					t.Fatal(err)
				}
				want := serial[seed][o]
				for v := range want {
					if rd.Perm[v] != want[v] {
						t.Fatalf("workers=%d n=%d m=%d order %s: parallel perm differs from serial at %d",
							workers, tc.n, tc.m, o, v)
					}
				}
			}
		}
		serialStatsThreshold = oldStats
		restore()
	}
}

func TestParseOrdering(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Ordering
	}{
		{"", OrderNatural}, {"natural", OrderNatural},
		{"degree", OrderDegree}, {"dbg", OrderDegreeGroup},
		{"rcm", OrderBFS}, {"bfs", OrderBFS},
	} {
		got, err := ParseOrdering(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOrdering(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseOrdering("bogus"); err == nil {
		t.Error("ParseOrdering accepted an unknown name")
	}
	for _, o := range append([]Ordering{OrderNatural}, allOrderings...) {
		back, err := ParseOrdering(o.String())
		if err != nil || back != o {
			t.Errorf("round trip of %v via %q failed: %v, %v", o, o.String(), back, err)
		}
	}
}

// TestComputeStatsParallelMatchesSerial forces the parallel stats fold
// and compares against the serial path on the full case sweep.
func TestComputeStatsParallelMatchesSerial(t *testing.T) {
	for _, tc := range buildCases {
		var g *Graph
		if tc.n == 0 {
			var err error
			if g, err = FromEdges(0, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			g = randomGraph(t, tc.n, tc.m, uint64(tc.n*31+tc.m))
		}
		want := g.ComputeStats()

		restore := forceParallel(t, 4)
		oldStats := serialStatsThreshold
		serialStatsThreshold = 0
		got := g.ComputeStats()
		serialStatsThreshold = oldStats
		restore()

		if got != want {
			t.Errorf("n=%d m=%d: parallel stats %+v differ from serial %+v", tc.n, tc.m, got, want)
		}
	}
}

// TestDegreeHistogramParallelMatchesSerial does the same for the
// bucketed degree histogram.
func TestDegreeHistogramParallelMatchesSerial(t *testing.T) {
	for _, tc := range buildCases {
		var g *Graph
		if tc.n == 0 {
			var err error
			if g, err = FromEdges(0, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			g = randomGraph(t, tc.n, tc.m, uint64(tc.n*17+tc.m))
		}
		want := g.DegreeHistogram()

		restore := forceParallel(t, 4)
		oldStats := serialStatsThreshold
		serialStatsThreshold = 0
		got := g.DegreeHistogram()
		serialStatsThreshold = oldStats
		restore()

		if len(got) != len(want) {
			t.Fatalf("n=%d m=%d: histogram lengths differ: parallel %d vs serial %d", tc.n, tc.m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("n=%d m=%d: histogram bucket %d: parallel %d vs serial %d", tc.n, tc.m, i, got[i], want[i])
			}
		}
	}
}

// FuzzReorderRoundTrip checks perm/inv inversion and relabel
// equivalence on generator-driven shapes.
func FuzzReorderRoundTrip(f *testing.F) {
	f.Add(uint64(1), 16, 64, 1)
	f.Add(uint64(7), 100, 10, 2)
	f.Add(uint64(42), 1000, 5000, 3)
	f.Fuzz(func(t *testing.T, seed uint64, n, m, order int) {
		if n < 1 || n > 2048 || m < 0 || m > 1<<14 {
			t.Skip()
		}
		o := Ordering(1 + (order&0x7fffffff)%3) // degree, dbg, or rcm
		r := rng.New(seed)
		g, err := FromEdges(n, randomEdges(r, n, m))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := g.Reorder(o)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, rd, n)
		want, err := g.Relabel(rd.Perm)
		if err != nil {
			t.Fatal(err)
		}
		if !identical(rd.Graph, want) {
			t.Errorf("seed=%d n=%d m=%d order %s: Reorder differs from Relabel", seed, n, m, o)
		}
	})
}
