package core

import (
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/topology"
)

// reorderTestOrderings are the non-natural orderings under test.
var reorderTestOrderings = []graph.Ordering{
	graph.OrderDegree, graph.OrderDegreeGroup, graph.OrderBFS,
}

// reorderTestGraphs pairs a scale-free and a mesh workload: R-MAT's
// power law exercises the hub prefix, the grid's banded structure the
// BFS-level ordering. The Undirected R-MAT is flagged Symmetric, so the
// relabeled graph keeps the flag: MS-BFS takes bottom-up levels on it
// and the direction-optimizing tier uses it as its own transpose.
func reorderTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"rmat":            must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 7)),
		"grid":            must(gen.Grid(40, 40, 4)),
		"rmat-undirected": must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 8)).Undirected(),
	}
}

// reorderTiers is the tier sweep: every concrete algorithm plus the
// direction-optimizing hybrid (which exercises the relabeled-transpose
// path). The multi-socket row spans two sockets, so relabeled targets
// cross partitions and travel through the channels.
var reorderTiers = []struct {
	name string
	opt  Options
}{
	{"sequential", Options{Algorithm: AlgSequential, Threads: 1}},
	{"parallel-simple", Options{Algorithm: AlgParallelSimple, Threads: 3}},
	{"single-socket", Options{Algorithm: AlgSingleSocket, Threads: 4}},
	{"multi-socket", Options{Algorithm: AlgMultiSocket, Threads: 4, Machine: topology.Generic(2, 2, 1)}},
	{"direction-optimizing", Options{Algorithm: AlgDirectionOptimizing, Threads: 4}},
}

// sampleReorderRoots picks a few spread-out non-isolated roots in
// original id space.
func sampleReorderRoots(g *graph.Graph, want int) []graph.Vertex {
	var roots []graph.Vertex
	n := g.NumVertices()
	for v := 0; v < n && len(roots) < want; v += 1 + n/(want*3) {
		if g.Degree(graph.Vertex(v)) > 0 {
			roots = append(roots, graph.Vertex(v))
		}
	}
	return roots
}

// TestReorderedSearchEquivalence checks, for every tier × ordering ×
// workload, that a reordered session answers queries identically to a
// natural one: same reached count and level count, identical depths,
// and a parent array that validates as a BFS tree of the ORIGINAL
// graph — i.e. the translation layer is transparent. Several roots run
// back to back on one session so the O(touched) reset of the external
// parent array is exercised between queries.
func TestReorderedSearchEquivalence(t *testing.T) {
	for gname, g := range reorderTestGraphs(t) {
		roots := sampleReorderRoots(g, 4)
		if len(roots) == 0 {
			t.Fatalf("%s: no non-isolated roots", gname)
		}
		// Natural baseline, one shot per root.
		base := make(map[graph.Vertex]*Result)
		depths := make(map[graph.Vertex][]int32)
		for _, root := range roots {
			res, err := BFS(g, root, Options{Algorithm: AlgSequential, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			base[root] = res
			depths[root] = TreeDepths(res.Parents, root)
		}
		for _, o := range reorderTestOrderings {
			rd, err := g.Reorder(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range reorderTiers {
				opt := tier.opt
				opt.Ordering = o
				opt.Reordered = rd
				s, err := NewSearcher(g, opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, o, tier.name, err)
				}
				for _, root := range roots {
					res, err := s.BFS(root)
					if err != nil {
						t.Fatalf("%s/%s/%s root %d: %v", gname, o, tier.name, root, err)
					}
					want := base[root]
					if res.Reached != want.Reached || res.Levels != want.Levels {
						t.Fatalf("%s/%s/%s root %d: reached/levels %d/%d, want %d/%d",
							gname, o, tier.name, root, res.Reached, res.Levels, want.Reached, want.Levels)
					}
					if res.Root != root {
						t.Fatalf("%s/%s/%s: result echoes root %d, want %d", gname, o, tier.name, res.Root, root)
					}
					// The parent array must be a BFS tree of the original,
					// unrelabeled graph.
					if err := ValidateTree(g, root, res.Parents); err != nil {
						t.Fatalf("%s/%s/%s root %d: translated tree invalid: %v", gname, o, tier.name, root, err)
					}
					got := TreeDepths(res.Parents, root)
					for v := range got {
						if got[v] != depths[root][v] {
							t.Fatalf("%s/%s/%s root %d: depth of %d is %d, want %d",
								gname, o, tier.name, root, v, got[v], depths[root][v])
						}
					}
				}
				s.Close()
			}
		}
	}
}

// TestReorderedBatchEquivalence runs MS-BFS batches through a reordered
// session, with each level direction setting, and checks every
// extraction surface speaks original ids: per-lane parents validate
// against the original graph with the natural depths, SeenMask matches
// the natural reached set, and Touched returns original-id vertices.
func TestReorderedBatchEquivalence(t *testing.T) {
	for gname, g := range reorderTestGraphs(t) {
		roots := sampleReorderRoots(g, 8)
		if len(roots) < 2 {
			t.Fatalf("%s: too few roots", gname)
		}
		baseline := make([]*Result, len(roots))
		depths := make([][]int32, len(roots))
		for i, root := range roots {
			res, err := BFS(g, root, Options{Algorithm: AlgSequential, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			baseline[i] = res
			depths[i] = TreeDepths(res.Parents, root)
		}
		for _, o := range reorderTestOrderings {
			rd, err := g.Reorder(o)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Graph.Symmetric() != g.Symmetric() {
				t.Fatalf("%s/%s: reordering changed the Symmetric flag", gname, o)
			}
			for _, dc := range directions {
				reorderedBatchPasses(t, gname+"/"+o.String()+"/"+dc.name, g, rd, dc.dir, roots, baseline, depths)
			}
		}
	}
}

// reorderedBatchPasses runs two batches of roots on one reordered
// session under direction dir and checks them against the natural
// baseline.
func reorderedBatchPasses(t *testing.T, label string, g *graph.Graph, rd *graph.Reordered, dir Direction,
	roots []graph.Vertex, baseline []*Result, depths [][]int32) {
	t.Helper()
	defer SetDirection(SetDirection(dir))
	bs, err := NewBatchSearcher(g, BatchOptions{
		Width:     len(roots),
		Threads:   3,
		Ordering:  rd.Order,
		Reordered: rd,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer bs.Close()
	// Two batches back to back exercise the touched-list reset of the
	// translated lane state.
	var parents []uint32
	for pass := 0; pass < 2; pass++ {
		res, err := bs.Search(roots)
		if err != nil {
			t.Fatalf("%s pass %d: %v", label, pass, err)
		}
		for l, root := range roots {
			if res.Err[l] != nil {
				t.Fatalf("%s lane %d: %v", label, l, res.Err[l])
			}
			if res.Reached[l] != baseline[l].Reached {
				t.Fatalf("%s lane %d: reached %d, want %d", label, l, res.Reached[l], baseline[l].Reached)
			}
			parents = res.ExtractParents(l, parents)
			if err := ValidateTree(g, root, parents); err != nil {
				t.Fatalf("%s lane %d: translated tree invalid: %v", label, l, err)
			}
			got := TreeDepths(parents, root)
			for v := range got {
				if got[v] != depths[l][v] {
					t.Fatalf("%s lane %d: depth of %d is %d, want %d", label, l, v, got[v], depths[l][v])
				}
			}
			if p := res.ParentOf(l, root); p != uint32(root) {
				t.Fatalf("%s lane %d: ParentOf(root) = %d, want %d", label, l, p, root)
			}
		}
		// SeenMask over every vertex must match the union of the natural
		// reached sets, lane by lane.
		for v := 0; v < g.NumVertices(); v++ {
			mask := res.SeenMask(graph.Vertex(v))
			for l := range roots {
				want := baseline[l].Parents[v] != NoParent
				if got := mask&(1<<uint(l)) != 0; got != want {
					t.Fatalf("%s: SeenMask(%d) lane %d = %v, want %v", label, v, l, got, want)
				}
			}
		}
		// Touched must be exactly the union of reached vertices, in
		// original ids.
		seen := make(map[uint32]bool)
		for _, v := range res.Touched() {
			seen[v] = true
		}
		for v := 0; v < g.NumVertices(); v++ {
			want := false
			for l := range roots {
				if baseline[l].Parents[v] != NoParent {
					want = true
					break
				}
			}
			if seen[uint32(v)] != want {
				t.Fatalf("%s: Touched contains %d = %v, want %v", label, v, seen[uint32(v)], want)
			}
		}
	}
	if g.Symmetric() && dir == DirectionBottomUp && bs.bottomUpLevels == 0 {
		t.Fatalf("%s: no bottom-up level ran", label)
	}
}

// TestReorderedSearcherRejectsMismatch checks the Reordered-vs-graph
// validation paths of both session kinds.
func TestReorderedSearcherRejectsMismatch(t *testing.T) {
	g := must(gen.Chain(64))
	other := must(gen.Chain(65))
	rd, err := other.Reorder(graph.OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(g, Options{Reordered: rd}); err == nil {
		t.Error("NewSearcher accepted a Reordered for a different graph")
	}
	if _, err := NewBatchSearcher(g, BatchOptions{Reordered: rd}); err == nil {
		t.Error("NewBatchSearcher accepted a Reordered for a different graph")
	}
	// A Reordered whose Graph matches but whose permutation pair is
	// truncated would index past the end of Perm or Inv.
	good, err := g.Reorder(graph.OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	shortPerm, shortInv := *good, *good
	shortPerm.Perm = good.Perm[:len(good.Perm)-1]
	shortInv.Inv = good.Inv[:len(good.Inv)-1]
	for name, bad := range map[string]*graph.Reordered{"Perm": &shortPerm, "Inv": &shortInv} {
		if _, err := NewSearcher(g, Options{Reordered: bad}); err == nil {
			t.Errorf("NewSearcher accepted a Reordered with a truncated %s", name)
		}
		if _, err := NewBatchSearcher(g, BatchOptions{Reordered: bad}); err == nil {
			t.Errorf("NewBatchSearcher accepted a Reordered with a truncated %s", name)
		}
	}
}

// TestReorderedWarmSearchAllocs pins the zero-allocation warm path with
// the translation layer active: root translation in, parent
// translation out, and the extParents reset must all stay on pooled
// state.
func TestReorderedWarmSearchAllocs(t *testing.T) {
	g := must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 7))
	roots := sampleReorderRoots(g, 4)
	if len(roots) < 2 {
		t.Fatal("too few roots")
	}
	for _, tier := range []struct {
		name string
		opt  Options
	}{
		{"sequential", Options{Algorithm: AlgSequential, Threads: 1}},
		{"single-socket", Options{Algorithm: AlgSingleSocket, Threads: 4}},
	} {
		opt := tier.opt
		opt.Ordering = graph.OrderDegree
		s, err := NewSearcher(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.BFS(roots[0]); err != nil { // absorb the cold search
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.BFS(roots[i%len(roots)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("%s: warm reordered search allocates %.1f times per op", tier.name, allocs)
		}
		s.Close()
	}
}

// TestReorderedWarmBatchAllocs does the same for the MS-BFS session,
// including the pooled Touched translation buffer.
func TestReorderedWarmBatchAllocs(t *testing.T) {
	g := must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 7))
	roots := sampleReorderRoots(g, 8)
	if len(roots) < 2 {
		t.Fatal("too few roots")
	}
	bs, err := NewBatchSearcher(g, BatchOptions{
		Width:    len(roots),
		Threads:  2,
		Ordering: graph.OrderDegree,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if res, err := bs.Search(roots); err != nil { // absorb cold batch + warm extTouched
		t.Fatal(err)
	} else {
		res.Touched()
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := bs.Search(roots)
		if err != nil {
			t.Fatal(err)
		}
		res.Touched()
	})
	if allocs > 0 {
		t.Errorf("warm reordered batch allocates %.1f times per op", allocs)
	}
}
