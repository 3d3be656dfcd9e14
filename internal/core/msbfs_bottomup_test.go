package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
)

// directions is the direction sweep of the MS-BFS and
// direction-optimizing tests: each tier's own rule, every level top
// down, and every level bottom up.
var directions = []struct {
	name string
	dir  Direction
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

// batchConstructors are the two kinds of MS-BFS session: one that
// records parents and one that does not.
var batchConstructors = []struct {
	name string
	new  func(*graph.Graph, BatchOptions) (*BatchSearcher, error)
}{
	{"parents", NewBatchSearcher},
	{"parent-free", NewBatchSearcherWithoutParents},
}

// TestBatchDirectionsMatchSingleSource runs the MS-BFS property test
// with the level direction chosen by the α rule, forced top down, and
// forced bottom up: on Undirected R-MAT graphs of scale 8–12, on an
// Undirected grid (many levels; the rule turns bottom up only in the
// last ones), on an R-MAT core with a long path tail (where the rule
// turns back to top down), and on a directed R-MAT, which is not
// flagged Symmetric and must never take a bottom-up level. Two batches
// run on each session, so the reset after bottom-up levels is covered
// too. Every batch runs on a session that records parents and on a
// parent-free one: both must match the reference, and each other lane
// by lane, with the same direction choices.
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
			for _, dc := range directions {
				prev := SetDirection(dc.dir)
				opt := BatchOptions{Width: sh.width, Threads: sh.threads}
				b, err := NewBatchSearcher(gc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				free, err := NewBatchSearcherWithoutParents(gc.g, opt)
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
					freeRes, err := free.Search(roots)
					if err != nil {
						t.Fatalf("%s parent-free: %v", label, err)
					}
					checkBatchLanes(t, label+" parent-free", refs, freeRes, 0)
					checkSameLanes(t, label+" parent-free", res, freeRes)
					if free.bottomUpLevels != b.bottomUpLevels || free.turns != b.turns {
						t.Fatalf("%s: parent-free session ran %d bottom-up levels with %d turns, want %d and %d",
							label, free.bottomUpLevels, free.turns, b.bottomUpLevels, b.turns)
					}
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
				free.Close()
				SetDirection(prev)
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
// at a deterministic level transition, in each direction and on both
// kinds of session: the cancelled lane must report exactly the
// truncated search (its m_a counts only the rows it expanded, although
// its twin lane keeps expanding the same vertices), its twin and the
// third lane must complete exactly, the parent-free session must match
// the one with parents lane by lane, cancelled lane included, and the
// next batch on each session must equal the sequential reference, as a
// fresh session's does.
func TestBatchBottomUpLaneCancel(t *testing.T) {
	g := must(gen.Grid(20, 20, 4)).Undirected()
	refs := newBatchRefs(g)
	roots := []graph.Vertex{0, 0, 210}
	_, depth0 := refs.get(t, 0)
	wantReached, wantEdges, wantLevels := truncatedLane(g, depth0, 2)
	for _, dc := range directions {
		prev := SetDirection(dc.dir)
		var sessions []*BatchSearcher
		var cancelled, next []*BatchResult
		for _, bc := range batchConstructors {
			label := dc.name + " " + bc.name
			b, err := bc.new(g, BatchOptions{Width: 3, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, b)
			// Poll 1 is at seeding and polls 2–4 at the first three level
			// transitions: the lane expands levels 0–2 and is cancelled
			// at the transition after level 2.
			ctx := &stepCancelCtx{threshold: 3}
			res, err := b.SearchLanes(context.Background(), roots, []context.Context{ctx, nil, nil})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !errors.Is(res.Err[0], context.Canceled) {
				t.Fatalf("%s: lane 0 error = %v, want context.Canceled", label, res.Err[0])
			}
			if res.Reached[0] != wantReached || res.Edges[0] != wantEdges || res.Levels[0] != wantLevels {
				t.Errorf("%s: cancelled lane Reached/Edges/Levels = %d/%d/%d, want %d/%d/%d", label,
					res.Reached[0], res.Edges[0], res.Levels[0], wantReached, wantEdges, wantLevels)
			}
			if dc.dir == DirectionBottomUp && b.bottomUpLevels == 0 {
				t.Errorf("%s: no bottom-up level ran", label)
			}
			checkBatchLanes(t, label+" survivors", refs, res, 1)
			cancelled = append(cancelled, res)
		}
		checkSameLanes(t, dc.name+" lane-cancelled batch", cancelled[0], cancelled[1])
		for i, b := range sessions {
			got, err := b.Search([]graph.Vertex{5, 399, 5})
			if err != nil {
				t.Fatalf("%s %s: next batch: %v", dc.name, batchConstructors[i].name, err)
			}
			checkBatchLanes(t, dc.name+" "+batchConstructors[i].name+" next batch", refs, got, 0)
			next = append(next, got)
		}
		checkSameLanes(t, dc.name+" next batch", next[0], next[1])
		for _, b := range sessions {
			b.Close()
		}
		SetDirection(prev)
	}
}

// TestBatchBottomUpWholeCancel cancels the whole batch in the middle of
// a bottom-up sweep (the context fails at a worker's in-sweep poll,
// not at a transition), then checks that the next batch on the session
// equals a fresh session's answer vertex by vertex, on both kinds of
// session.
func TestBatchBottomUpWholeCancel(t *testing.T) {
	g := must(gen.RMAT(14, 1<<17, gen.GTgraphDefaults, 17)).Undirected()
	defer SetDirection(SetDirection(DirectionBottomUp))
	roots := spreadRoots(g.NumVertices(), 16, 1)
	fresh, err := NewBatchSearcher(g, BatchOptions{Width: 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Search(roots)
	if err != nil {
		t.Fatal(err)
	}
	refs := newBatchRefs(g)
	for _, bc := range batchConstructors {
		b, err := bc.new(g, BatchOptions{Width: 16, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Poll 1 is the dead-on-arrival check; the workers poll at every
		// 2^12th vertex of their ranges, so polls 2–5 fall inside the
		// root level's sweep.
		ctx := &stepCancelCtx{threshold: 3}
		if _, err := b.SearchContext(ctx, spreadRoots(g.NumVertices(), 16, 0)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-sweep error = %v, want context.Canceled", bc.name, err)
		}
		res, err := b.Search(roots)
		if err != nil {
			t.Fatal(err)
		}
		checkSameLanes(t, bc.name+" after whole-batch cancel", want, res)
		checkBatchLanes(t, bc.name+" after whole-batch cancel", refs, res, 0)
		b.Close()
	}
}

// TestBatchBottomUpWarmAllocs pins the zero-allocation warm batch with
// bottom-up levels in it, under the α rule and forced, on both kinds of
// session.
func TestBatchBottomUpWarmAllocs(t *testing.T) {
	g := must(gen.RMAT(10, 1<<13, gen.GTgraphDefaults, 7)).Undirected()
	for _, dir := range []Direction{DirectionAuto, DirectionBottomUp} {
		prev := SetDirection(dir)
		for _, bc := range batchConstructors {
			b, err := bc.new(g, BatchOptions{Width: 16, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			roots := spreadRoots(g.NumVertices(), 16, 0)
			if _, err := b.Search(roots); err != nil { // absorb the cold batch
				t.Fatal(err)
			}
			if b.bottomUpLevels == 0 {
				t.Errorf("direction %d %s: no bottom-up level ran", dir, bc.name)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := b.Search(roots); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("direction %d %s: warm batch allocates %.1f times per op", dir, bc.name, allocs)
			}
			b.Close()
		}
		SetDirection(prev)
	}
}

// TestBatchWithoutParentsPanics: a parent-free session records no
// trees, so ParentOf and ExtractParents panic, naming the constructor,
// rather than return a wrong tree. SeenMask still answers.
func TestBatchWithoutParentsPanics(t *testing.T) {
	g := must(gen.Chain(3))
	b, err := NewBatchSearcherWithoutParents(g, BatchOptions{Width: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.parents != nil {
		t.Fatalf("parent-free session holds a %d-entry parent array", len(b.parents))
	}
	res, err := b.Search([]graph.Vertex{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.SeenMask(2); m != 0b11 {
		t.Errorf("SeenMask(2) = %#b, want 0b11", m)
	}
	for _, tc := range []struct {
		method string
		call   func()
	}{
		{"ParentOf", func() { res.ParentOf(0, 1) }},
		{"ExtractParents", func() { res.ExtractParents(0, nil) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.method) || !strings.Contains(msg, "NewBatchSearcherWithoutParents") {
					t.Errorf("%s on a parent-free session: panic %q, want one naming %s and NewBatchSearcherWithoutParents",
						tc.method, msg, tc.method)
				}
			}()
			tc.call()
		}()
	}
}
