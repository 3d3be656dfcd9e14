package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
)

// batchDirections is the direction sweep of the MS-BFS tests: the α
// rule, every level top down, and every level bottom up.
var batchDirections = []struct {
	name string
	dir  BatchDirection
}{
	{"auto", DirectionAuto},
	{"top-down", DirectionTopDown},
	{"bottom-up", DirectionBottomUp},
}

// lollipop is an Undirected R-MAT core of the given scale with a path
// of tail vertices hanging off vertex 0: the α rule turns bottom up in
// the core's dense levels and back to top down along the path.
func lollipop(scale, tail int) *graph.Graph {
	core := must(gen.RMAT(scale, int64(8)<<scale, gen.GTgraphDefaults, 21))
	n := core.NumVertices()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for _, v := range core.Neighbors(graph.Vertex(u)) {
			edges = append(edges, graph.Edge{Src: graph.Vertex(u), Dst: v})
		}
	}
	prev := graph.Vertex(0)
	for i := 0; i < tail; i++ {
		edges = append(edges, graph.Edge{Src: prev, Dst: graph.Vertex(n + i)})
		prev = graph.Vertex(n + i)
	}
	return must(graph.FromEdges(n+tail, edges)).Undirected()
}

// TestBatchDirectionsMatchSingleSource runs the MS-BFS property test
// with the level direction chosen by the α rule, forced top down, and
// forced bottom up: on Undirected R-MAT graphs of scale 8–12, on an
// Undirected grid (many levels; the rule turns bottom up only in the
// last ones), on an R-MAT core with a long path tail (where the rule
// turns back to top down), and on a directed R-MAT, which is not
// flagged Symmetric and must never take a bottom-up level. Two batches
// run on each session, so the reset after bottom-up levels is covered
// too.
func TestBatchDirectionsMatchSingleSource(t *testing.T) {
	type shape struct{ width, threads int }
	graphs := []struct {
		name      string
		g         *graph.Graph
		shapes    []shape
		wantTurns int // the fewest direction changes some auto batch must make
	}{
		{"rmat8-undirected", must(gen.RMAT(8, 1<<10, gen.GTgraphDefaults, 11)).Undirected(), []shape{{1, 1}, {17, 3}}, 1},
		{"rmat9-undirected", must(gen.RMAT(9, 1<<11, gen.GTgraphDefaults, 12)).Undirected(), []shape{{16, 2}, {64, 4}}, 1},
		{"rmat10-undirected", must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 13)).Undirected(), []shape{{64, 2}, {17, 4}}, 1},
		{"rmat11-undirected", must(gen.RMAT(11, 1<<14, gen.GTgraphDefaults, 14)).Undirected(), []shape{{16, 1}, {1, 2}}, 1},
		{"rmat12-undirected", must(gen.RMAT(12, 1<<15, gen.GTgraphDefaults, 15)).Undirected(), []shape{{17, 2}}, 1},
		{"grid-undirected", must(gen.Grid(24, 24, 4)).Undirected(), []shape{{1, 1}, {16, 2}, {17, 3}, {64, 4}}, 1},
		{"lollipop", lollipop(9, 150), []shape{{16, 3}}, 2},
		{"rmat10-directed", must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 16)), []shape{{16, 2}, {64, 3}}, 0},
	}
	for _, gc := range graphs {
		refs := newBatchRefs(gc.g)
		var autoBottomUp, autoTurns int
		for _, sh := range gc.shapes {
			for _, dc := range batchDirections {
				prev := SetBatchDirection(dc.dir)
				b, err := NewBatchSearcher(gc.g, BatchOptions{Width: sh.width, Threads: sh.threads})
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					label := fmt.Sprintf("%s width %d threads %d %s pass %d", gc.name, sh.width, sh.threads, dc.name, pass)
					roots := spreadRoots(gc.g.NumVertices(), sh.width, pass)
					res, err := b.Search(roots)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkBatchLanes(t, label, refs, res, 0)
					switch {
					case !gc.g.Symmetric() || dc.dir == DirectionTopDown:
						if b.bottomUpLevels != 0 {
							t.Fatalf("%s: %d bottom-up levels, want none", label, b.bottomUpLevels)
						}
					case dc.dir == DirectionBottomUp:
						if b.bottomUpLevels == 0 || b.turns != 0 {
							t.Fatalf("%s: %d bottom-up levels and %d turns, want every level bottom up",
								label, b.bottomUpLevels, b.turns)
						}
					default:
						autoBottomUp += b.bottomUpLevels
						autoTurns = max(autoTurns, b.turns)
					}
				}
				b.Close()
				SetBatchDirection(prev)
			}
		}
		if gc.g.Symmetric() && autoBottomUp == 0 {
			t.Errorf("%s: the α rule never chose a bottom-up level", gc.name)
		}
		if autoTurns < gc.wantTurns {
			t.Errorf("%s: the α rule changed direction at most %d times in a batch, want %d", gc.name, autoTurns, gc.wantTurns)
		}
	}
}

// truncatedLane is what a lane cancelled at the transition after level
// k reports: it reached every vertex at depth ≤ k+1, expanded (and is
// charged the rows of) every vertex at depth ≤ k, and its level count
// was last stamped at the transition before.
func truncatedLane(g *graph.Graph, depth []int32, k int32) (reached, edges int64, levels int) {
	for v, d := range depth {
		if d < 0 {
			continue
		}
		if d <= k+1 {
			reached++
		}
		if d <= k {
			edges += int64(g.Degree(graph.Vertex(v)))
		}
	}
	return reached, edges, int(k) + 1
}

// TestBatchBottomUpLaneCancel cancels one lane of a duplicate-root pair
// at a deterministic level transition, in each direction: the cancelled
// lane must report exactly the truncated search (its m_a counts only
// the rows it expanded, although its twin lane keeps expanding the
// same vertices), its twin and the third lane must complete exactly,
// and the next batch on the session must equal the sequential
// reference, as a fresh session's does.
func TestBatchBottomUpLaneCancel(t *testing.T) {
	g := must(gen.Grid(20, 20, 4)).Undirected()
	refs := newBatchRefs(g)
	roots := []graph.Vertex{0, 0, 210}
	_, depth0 := refs.get(t, 0)
	wantReached, wantEdges, wantLevels := truncatedLane(g, depth0, 2)
	for _, dc := range batchDirections {
		prev := SetBatchDirection(dc.dir)
		b, err := NewBatchSearcher(g, BatchOptions{Width: 3, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Poll 1 is at seeding and polls 2–4 at the first three level
		// transitions: the lane expands levels 0–2 and is cancelled at
		// the transition after level 2.
		ctx := &stepCancelCtx{threshold: 3}
		res, err := b.SearchLanes(context.Background(), roots, []context.Context{ctx, nil, nil})
		if err != nil {
			t.Fatalf("%s: %v", dc.name, err)
		}
		if !errors.Is(res.Err[0], context.Canceled) {
			t.Fatalf("%s: lane 0 error = %v, want context.Canceled", dc.name, res.Err[0])
		}
		if res.Reached[0] != wantReached || res.Edges[0] != wantEdges || res.Levels[0] != wantLevels {
			t.Errorf("%s: cancelled lane Reached/Edges/Levels = %d/%d/%d, want %d/%d/%d", dc.name,
				res.Reached[0], res.Edges[0], res.Levels[0], wantReached, wantEdges, wantLevels)
		}
		if dc.dir == DirectionBottomUp && b.bottomUpLevels == 0 {
			t.Errorf("%s: no bottom-up level ran", dc.name)
		}
		checkBatchLanes(t, dc.name+" survivors", refs, res, 1)
		next := []graph.Vertex{5, 399, 5}
		got, err := b.Search(next)
		if err != nil {
			t.Fatalf("%s: next batch: %v", dc.name, err)
		}
		checkBatchLanes(t, dc.name+" next batch", refs, got, 0)
		b.Close()
		SetBatchDirection(prev)
	}
}

// TestBatchBottomUpWholeCancel cancels the whole batch in the middle of
// a bottom-up sweep (the context fails at a worker's in-sweep poll,
// not at a transition), then checks that the next batch on the session
// equals a fresh session's answer vertex by vertex.
func TestBatchBottomUpWholeCancel(t *testing.T) {
	g := must(gen.RMAT(14, 1<<17, gen.GTgraphDefaults, 17)).Undirected()
	defer SetBatchDirection(SetBatchDirection(DirectionBottomUp))
	b, err := NewBatchSearcher(g, BatchOptions{Width: 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Poll 1 is the dead-on-arrival check; the workers poll at every
	// 2^12th vertex of their ranges, so polls 2–5 fall inside the root
	// level's sweep.
	ctx := &stepCancelCtx{threshold: 3}
	if _, err := b.SearchContext(ctx, spreadRoots(g.NumVertices(), 16, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep error = %v, want context.Canceled", err)
	}
	roots := spreadRoots(g.NumVertices(), 16, 1)
	res, err := b.Search(roots)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBatchSearcher(g, BatchOptions{Width: 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Search(roots)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, w := res.SeenMask(graph.Vertex(v)), want.SeenMask(graph.Vertex(v)); got != w {
			t.Fatalf("SeenMask(%d) = %#x after the cancelled batch, fresh session %#x", v, got, w)
		}
	}
	for l := range roots {
		if res.Reached[l] != want.Reached[l] || res.Levels[l] != want.Levels[l] || res.Edges[l] != want.Edges[l] {
			t.Fatalf("lane %d: Reached/Levels/Edges = %d/%d/%d, fresh session %d/%d/%d", l,
				res.Reached[l], res.Levels[l], res.Edges[l], want.Reached[l], want.Levels[l], want.Edges[l])
		}
	}
	checkBatchLanes(t, "after whole-batch cancel", newBatchRefs(g), res, 0)
}

// TestBatchBottomUpWarmAllocs pins the zero-allocation warm batch with
// bottom-up levels in it, under the α rule and forced.
func TestBatchBottomUpWarmAllocs(t *testing.T) {
	g := must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 7)).Undirected()
	for _, dir := range []BatchDirection{DirectionAuto, DirectionBottomUp} {
		prev := SetBatchDirection(dir)
		b, err := NewBatchSearcher(g, BatchOptions{Width: 16, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		roots := spreadRoots(g.NumVertices(), 16, 0)
		if _, err := b.Search(roots); err != nil { // absorb the cold batch
			t.Fatal(err)
		}
		if b.bottomUpLevels == 0 {
			t.Errorf("direction %d: no bottom-up level ran", dir)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := b.Search(roots); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("direction %d: warm batch allocates %.1f times per op", dir, allocs)
		}
		b.Close()
		SetBatchDirection(prev)
	}
}
