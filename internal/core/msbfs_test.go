package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// batchRef runs the single-source sequential reference for one root.
func batchRef(t *testing.T, g *graph.Graph, root graph.Vertex) *Result {
	t.Helper()
	res, err := BFS(g, root, Options{Algorithm: AlgSequential})
	if err != nil {
		t.Fatalf("reference BFS(%d): %v", root, err)
	}
	return res
}

// batchRefs caches the sequential reference, and its depth array, per
// root.
type batchRefs struct {
	g      *graph.Graph
	res    map[graph.Vertex]*Result
	depths map[graph.Vertex][]int32
}

func newBatchRefs(g *graph.Graph) *batchRefs {
	return &batchRefs{g: g, res: map[graph.Vertex]*Result{}, depths: map[graph.Vertex][]int32{}}
}

func (r *batchRefs) get(t *testing.T, root graph.Vertex) (*Result, []int32) {
	t.Helper()
	if res, ok := r.res[root]; ok {
		return res, r.depths[root]
	}
	res := batchRef(t, r.g, root)
	r.res[root] = res
	r.depths[root] = TreeDepths(res.Parents, root)
	return res, r.depths[root]
}

// checkBatchLanes requires lanes [from, Lanes) of res to equal the
// sequential reference from their roots: Reached, Levels and Edges
// exactly, then, on a session that records parents, a tree that
// validates and a byte-equal depth array, and on a parent-free one a
// lane seen set that is exactly the reference's reached set.
func checkBatchLanes(t *testing.T, label string, refs *batchRefs, res *BatchResult, from int) {
	t.Helper()
	var parents []uint32
	for l := from; l < res.Lanes; l++ {
		root := res.Roots[l]
		ref, want := refs.get(t, root)
		if res.Err[l] != nil {
			t.Fatalf("%s lane %d: unexpected error %v", label, l, res.Err[l])
		}
		if res.Reached[l] != ref.Reached || res.Levels[l] != ref.Levels || res.Edges[l] != ref.EdgesTraversed {
			t.Fatalf("%s lane %d (root %d): Reached/Levels/Edges = %d/%d/%d, want %d/%d/%d", label, l, root,
				res.Reached[l], res.Levels[l], res.Edges[l], ref.Reached, ref.Levels, ref.EdgesTraversed)
		}
		if res.b.parents == nil {
			for v, d := range want {
				if seen := res.SeenMask(graph.Vertex(v))&(1<<uint(l)) != 0; seen != (d >= 0) {
					t.Fatalf("%s lane %d (root %d): seen[%d] = %v, reference depth %d", label, l, root, v, seen, d)
				}
			}
			continue
		}
		parents = res.ExtractParents(l, parents)
		if err := ValidateTree(refs.g, root, parents); err != nil {
			t.Fatalf("%s lane %d (root %d): %v", label, l, root, err)
		}
		got := TreeDepths(parents, root)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("%s lane %d (root %d): depth[%d] = %d, want %d", label, l, root, v, got[v], want[v])
			}
		}
	}
}

// checkSameLanes requires a batch to equal the same batch run on a
// session of the other kind (one with parents, one without): every
// lane's Reached, Levels, Edges and error, the seen mask of every
// vertex, and the touched list as a set.
func checkSameLanes(t *testing.T, label string, want, got *BatchResult) {
	t.Helper()
	if got.Lanes != want.Lanes {
		t.Fatalf("%s: %d lanes, want %d", label, got.Lanes, want.Lanes)
	}
	for l := 0; l < want.Lanes; l++ {
		if got.Reached[l] != want.Reached[l] || got.Levels[l] != want.Levels[l] ||
			got.Edges[l] != want.Edges[l] || !errors.Is(got.Err[l], want.Err[l]) {
			t.Fatalf("%s lane %d: Reached/Levels/Edges/Err = %d/%d/%d/%v, want %d/%d/%d/%v", label, l,
				got.Reached[l], got.Levels[l], got.Edges[l], got.Err[l],
				want.Reached[l], want.Levels[l], want.Edges[l], want.Err[l])
		}
	}
	n := want.b.n
	for v := 0; v < n; v++ {
		if g, w := got.SeenMask(graph.Vertex(v)), want.SeenMask(graph.Vertex(v)); g != w {
			t.Fatalf("%s: SeenMask(%d) = %#x, want %#x", label, v, g, w)
		}
	}
	in := make([]bool, n)
	for _, v := range want.Touched() {
		in[v] = true
	}
	gotTouched := got.Touched()
	if len(gotTouched) != len(want.Touched()) {
		t.Fatalf("%s: %d touched vertices, want %d", label, len(gotTouched), len(want.Touched()))
	}
	for _, v := range gotTouched {
		if !in[v] {
			t.Fatalf("%s: touched vertex %d is not touched in the other session, or twice", label, v)
		}
		in[v] = false
	}
}

// spreadRoots returns width deterministic roots; lanes 0 and width-1
// share a root when width > 1.
func spreadRoots(n, width, pass int) []graph.Vertex {
	roots := make([]graph.Vertex, width)
	for i := range roots {
		roots[i] = graph.Vertex((i*2654435761 + pass*7919) % n)
	}
	if width > 1 {
		roots[width-1] = roots[0]
	}
	return roots
}

// TestBatchMatchesSingleSource is the central MS-BFS property test:
// across random R-MAT graphs and batch widths (duplicate roots
// included), every lane's tree must validate and its scalars —
// Reached, Levels, and per-lane attributed Edges — must exactly equal
// the single-source sequential reference from the same root.
func TestBatchMatchesSingleSource(t *testing.T) {
	cases := []struct {
		scale   int
		edges   int64
		seed    uint64
		width   int
		threads int
	}{
		{8, 2048, 1, 1, 1},
		{8, 2048, 2, 8, 2},
		{9, 4096, 3, 17, 3},
		{10, 16384, 4, 32, 4},
		{10, 8192, 5, 64, 2},
		{11, 16384, 6, 64, 4},
	}
	for _, c := range cases {
		g := must(gen.RMAT(c.scale, c.edges, gen.GTgraphDefaults, c.seed))
		roots := spreadRoots(g.NumVertices(), c.width, 0)
		b, err := NewBatchSearcher(g, BatchOptions{Width: c.width, Threads: c.threads})
		if err != nil {
			t.Fatalf("NewBatchSearcher: %v", err)
		}
		res, err := b.Search(roots)
		if err != nil {
			t.Fatalf("scale %d width %d: Search: %v", c.scale, c.width, err)
		}
		if res.EdgesScanned <= 0 && g.NumEdges() > 0 {
			t.Errorf("scale %d: EdgesScanned = %d", c.scale, res.EdgesScanned)
		}
		checkBatchLanes(t, fmt.Sprintf("scale %d width %d", c.scale, c.width), newBatchRefs(g), res, 0)
		if err := b.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestBatchSessionReuse runs several batches through one session and
// checks the O(touched) reset leaves no residue: every batch must
// reproduce the fresh-searcher result, including after a chain batch
// that touches a different region than its predecessor.
func TestBatchSessionReuse(t *testing.T) {
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 7))
	n := g.NumVertices()
	b, err := NewBatchSearcher(g, BatchOptions{Width: 16, Threads: 2})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()
	for round := 0; round < 5; round++ {
		roots := make([]graph.Vertex, 16)
		for i := range roots {
			roots[i] = graph.Vertex((round*977 + i*131) % n)
		}
		res, err := b.Search(roots)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for l := range roots {
			ref := batchRef(t, g, roots[l])
			if res.Reached[l] != ref.Reached || res.Edges[l] != ref.EdgesTraversed || res.Levels[l] != ref.Levels {
				t.Fatalf("round %d lane %d: Reached=%d/%d Edges=%d/%d Levels=%d/%d",
					round, l, res.Reached[l], ref.Reached, res.Edges[l], ref.EdgesTraversed,
					res.Levels[l], ref.Levels)
			}
		}
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	g := must(gen.Chain(10))
	if _, err := NewBatchSearcher(nil, BatchOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewBatchSearcher(g, BatchOptions{Width: 65}); err == nil {
		t.Error("width 65 accepted")
	}
	b, err := NewBatchSearcher(g, BatchOptions{Width: 2, Threads: 2})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	if _, err := b.Search(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := b.Search([]graph.Vertex{0, 1, 2}); err == nil {
		t.Error("over-width batch accepted")
	}
	if _, err := b.Search([]graph.Vertex{10}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := b.SearchLanes(context.Background(), []graph.Vertex{0, 1}, []context.Context{context.Background()}); err == nil {
		t.Error("mismatched lane-context count accepted")
	}
	if err := b.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := b.Search([]graph.Vertex{0}); err == nil {
		t.Error("Search on closed BatchSearcher accepted")
	}
}

// TestBatchPreCancelledLane seeds one lane with an already-expired
// context: the lane must deterministically report its root and only its
// root, with the context's error, while sibling lanes run to completion
// untouched.
func TestBatchPreCancelledLane(t *testing.T) {
	g := must(gen.Chain(100))
	b, err := NewBatchSearcher(g, BatchOptions{Width: 3, Threads: 2})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	roots := []graph.Vertex{0, 0, 50}
	res, err := b.SearchLanes(context.Background(), roots, []context.Context{nil, dead, nil})
	if err != nil {
		t.Fatalf("SearchLanes: %v", err)
	}
	if res.Err[1] == nil || !errors.Is(res.Err[1], context.Canceled) {
		t.Errorf("lane 1 error = %v, want context.Canceled", res.Err[1])
	}
	if res.Reached[1] != 1 || res.Levels[1] != 1 || res.Edges[1] != 0 {
		t.Errorf("cancelled lane: Reached=%d Levels=%d Edges=%d, want 1/1/0",
			res.Reached[1], res.Levels[1], res.Edges[1])
	}
	for _, l := range []int{0, 2} {
		ref := batchRef(t, g, roots[l])
		if res.Err[l] != nil {
			t.Errorf("lane %d: unexpected error %v", l, res.Err[l])
		}
		if res.Reached[l] != ref.Reached || res.Edges[l] != ref.EdgesTraversed {
			t.Errorf("lane %d: Reached=%d/%d Edges=%d/%d", l,
				res.Reached[l], ref.Reached, res.Edges[l], ref.EdgesTraversed)
		}
	}
}

// stepCancelCtx is a context whose Err flips to Canceled after a fixed
// number of polls. The batch engine polls a lane context once at
// seeding and once per level transition, so the flip lands at a
// deterministic depth — the reliable way to exercise mid-traversal
// lane cancellation.
type stepCancelCtx struct {
	polls     atomic.Int64
	threshold int64
}

func (c *stepCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCancelCtx) Done() <-chan struct{}       { return nil }
func (c *stepCancelCtx) Value(any) any               { return nil }
func (c *stepCancelCtx) Err() error {
	if c.polls.Add(1) > c.threshold {
		return context.Canceled
	}
	return nil
}

// TestBatchLaneCancelMidTraversal cancels one lane after two level
// transitions of a deep chain: the lane must stop with a truncated
// reach and a cancellation error while its siblings complete exactly.
func TestBatchLaneCancelMidTraversal(t *testing.T) {
	const n = 200
	g := must(gen.Chain(n))
	b, err := NewBatchSearcher(g, BatchOptions{Width: 2, Threads: 2})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()
	// Poll 1 happens at seeding; polls 2 and 3 at the first two level
	// transitions. Threshold 3 cancels the lane at the third transition,
	// after it has advanced exactly 3 levels.
	ctx := &stepCancelCtx{threshold: 3}
	res, err := b.SearchLanes(context.Background(), []graph.Vertex{0, 0}, []context.Context{ctx, nil})
	if err != nil {
		t.Fatalf("SearchLanes: %v", err)
	}
	if res.Err[0] == nil || !errors.Is(res.Err[0], context.Canceled) {
		t.Fatalf("lane 0 error = %v, want context.Canceled", res.Err[0])
	}
	if res.Reached[0] <= 1 || res.Reached[0] >= n {
		t.Errorf("cancelled lane Reached = %d, want truncated in (1,%d)", res.Reached[0], n)
	}
	ref := batchRef(t, g, 0)
	if res.Err[1] != nil {
		t.Errorf("surviving lane error: %v", res.Err[1])
	}
	if res.Reached[1] != ref.Reached || res.Edges[1] != ref.EdgesTraversed || res.Levels[1] != ref.Levels {
		t.Errorf("surviving lane: Reached=%d/%d Edges=%d/%d Levels=%d/%d",
			res.Reached[1], ref.Reached, res.Edges[1], ref.EdgesTraversed, res.Levels[1], ref.Levels)
	}
	// The truncated lane's claimed prefix is still a consistent partial
	// tree: every claimed vertex has a claimed parent one step closer.
	var parents []uint32
	parents = res.ExtractParents(0, parents)
	for v := 0; v < n; v++ {
		p := parents[v]
		if p == NoParent || v == 0 {
			continue
		}
		if p != uint32(v-1) {
			t.Errorf("cancelled lane: parent[%d] = %d, want %d", v, p, v-1)
		}
		if parents[p] == NoParent {
			t.Errorf("cancelled lane: claimed vertex %d has unclaimed parent %d", v, p)
		}
	}
	// The session stays serviceable after a lane cancellation.
	res2, err := b.Search([]graph.Vertex{0, 10})
	if err != nil {
		t.Fatalf("post-cancel Search: %v", err)
	}
	if res2.Reached[0] != ref.Reached {
		t.Errorf("post-cancel Reached = %d, want %d", res2.Reached[0], ref.Reached)
	}
}

// TestBatchWholeCancel aborts the entire batch via the batch context
// and checks the session resets cleanly for the next call.
func TestBatchWholeCancel(t *testing.T) {
	g := must(gen.Chain(50))
	b, err := NewBatchSearcher(g, BatchOptions{Width: 2, Threads: 2})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()

	// Dead on arrival: no state dirtied, error surfaces immediately.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.SearchContext(dead, []graph.Vertex{0, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-on-arrival error = %v", err)
	}

	// Cancel mid-flight via the per-level coordinator poll.
	ctx := &stepCancelCtx{threshold: 3}
	if _, err := b.SearchLanes(ctx, []graph.Vertex{0, 1}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight error = %v", err)
	}

	// The session must recover to exact results.
	ref := batchRef(t, g, 0)
	res, err := b.Search([]graph.Vertex{0, 25})
	if err != nil {
		t.Fatalf("post-abort Search: %v", err)
	}
	if res.Reached[0] != ref.Reached || res.Edges[0] != ref.EdgesTraversed {
		t.Errorf("post-abort: Reached=%d/%d Edges=%d/%d",
			res.Reached[0], ref.Reached, res.Edges[0], ref.EdgesTraversed)
	}
}

// TestBatchCancelRecordsOutcomes checks that a batch cancelled as a
// whole, dead on arrival or at the coordinator's poll mid-traversal,
// still records one cancelled outcome per lane, as a cancelled Searcher
// search records one, and no batch sample, since it has no result.
func TestBatchCancelRecordsOutcomes(t *testing.T) {
	g := must(gen.Chain(50))
	roots := []graph.Vertex{0, 1, 2}
	for _, bc := range batchConstructors {
		var m obs.Metrics
		tel := obs.NewTelemetry(obs.TelemetryOptions{Shards: 1, Metrics: &m})
		b, err := bc.new(g, BatchOptions{Width: 3, Threads: 2, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := b.SearchContext(dead, roots); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: dead-on-arrival error = %v", bc.name, err)
		}
		if got := tel.OutcomeCount(obs.OutcomeCancelled); got != 3 {
			t.Errorf("%s: dead on arrival: %d cancelled outcomes, want 3 (one per lane)", bc.name, got)
		}
		if _, err := b.SearchLanes(&stepCancelCtx{threshold: 3}, roots, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-flight error = %v", bc.name, err)
		}
		if got := tel.OutcomeCount(obs.OutcomeCancelled); got != 6 {
			t.Errorf("%s: mid-flight: %d cancelled outcomes, want 6 (one per lane per batch)", bc.name, got)
		}
		if got := m.BatchTraversals.Load(); got != 0 {
			t.Errorf("%s: %d batch samples after two cancelled batches, want 0", bc.name, got)
		}
		if _, err := b.Search(roots); err != nil {
			t.Fatal(err)
		}
		if ok, cancelled := tel.OutcomeCount(obs.OutcomeOK), tel.OutcomeCount(obs.OutcomeCancelled); ok != 3 || cancelled != 6 {
			t.Errorf("%s: after a full batch: %d ok and %d cancelled outcomes, want 3 and 6", bc.name, ok, cancelled)
		}
		if got := m.BatchTraversals.Load(); got != 1 {
			t.Errorf("%s: %d batch samples after one full batch, want 1", bc.name, got)
		}
		b.Close()
	}
}

func TestBatchSeenMaskAndParentOf(t *testing.T) {
	// Chain 0->1->2: lane 0 from vertex 0 sees everything, lane 1 from
	// vertex 2 sees only vertex 2.
	g := must(gen.Chain(3))
	b, err := NewBatchSearcher(g, BatchOptions{Width: 2, Threads: 1})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()
	res, err := b.Search([]graph.Vertex{0, 2})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if m := res.SeenMask(0); m != 0b01 {
		t.Errorf("SeenMask(0) = %#b, want 0b01", m)
	}
	if m := res.SeenMask(2); m != 0b11 {
		t.Errorf("SeenMask(2) = %#b, want 0b11", m)
	}
	if p := res.ParentOf(0, 1); p != 0 {
		t.Errorf("ParentOf(0, 1) = %d, want 0", p)
	}
	if p := res.ParentOf(1, 1); p != NoParent {
		t.Errorf("ParentOf(1, 1) = %d, want NoParent", p)
	}
	if p := res.ParentOf(1, 2); p != 2 {
		t.Errorf("ParentOf(1, 2) = %d, want 2 (root self-parent)", p)
	}
	if got := len(res.Touched()); got != 3 {
		t.Errorf("Touched = %d vertices, want 3", got)
	}
}

func TestBatchQueryOneShot(t *testing.T) {
	g := must(gen.RMAT(9, 4096, gen.GTgraphDefaults, 9))
	roots := []graph.Vertex{0, 1, 2, 3}
	trees, err := BatchQuery(g, roots, BatchOptions{Threads: 2})
	if err != nil {
		t.Fatalf("BatchQuery: %v", err)
	}
	if len(trees.Parents) != len(roots) {
		t.Fatalf("got %d parent arrays, want %d", len(trees.Parents), len(roots))
	}
	for l, root := range roots {
		if err := ValidateTree(g, root, trees.Parents[l]); err != nil {
			t.Errorf("lane %d: %v", l, err)
		}
		ref := batchRef(t, g, root)
		if trees.Reached[l] != ref.Reached {
			t.Errorf("lane %d: Reached = %d, want %d", l, trees.Reached[l], ref.Reached)
		}
	}
}

// TestBatchTelemetry checks the batch sinks: lane histogram, batch
// totals, and one per-lane query sample with the msbfs algorithm label.
func TestBatchTelemetry(t *testing.T) {
	g := must(gen.RMAT(9, 4096, gen.GTgraphDefaults, 10))
	var m obs.Metrics
	tel := obs.NewTelemetry(obs.TelemetryOptions{Shards: 1, Metrics: &m})
	b, err := NewBatchSearcher(g, BatchOptions{Width: 8, Threads: 2, Telemetry: tel})
	if err != nil {
		t.Fatalf("NewBatchSearcher: %v", err)
	}
	defer b.Close()
	roots := []graph.Vertex{0, 1, 2, 3, 4}
	res, err := b.Search(roots)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if got := m.BatchTraversals.Load(); got != 1 {
		t.Errorf("BatchTraversals = %d, want 1", got)
	}
	if got := m.BatchLanes.Load(); got != 5 {
		t.Errorf("BatchLanes = %d, want 5", got)
	}
	if got := m.BatchEdges.Load(); got != res.EdgesScanned {
		t.Errorf("BatchEdges = %d, want %d", got, res.EdgesScanned)
	}
	var laneSum int64
	for _, e := range res.Edges {
		laneSum += e
	}
	if got := m.BatchLaneEdges.Load(); got != laneSum {
		t.Errorf("BatchLaneEdges = %d, want %d", got, laneSum)
	}
	if got := tel.OutcomeCount(obs.OutcomeOK); got != 5 {
		t.Errorf("OutcomeOK count = %d, want 5 (one per lane)", got)
	}
	traversals, lanes, scanned, laneEdges := tel.BatchStats()
	if traversals != 1 || lanes != 5 || scanned != res.EdgesScanned || laneEdges != laneSum {
		t.Errorf("BatchStats = (%d, %d, %d, %d), want (1, 5, %d, %d)",
			traversals, lanes, scanned, laneEdges, res.EdgesScanned, laneSum)
	}
	buckets := tel.BatchLaneBuckets()
	// 5 lanes lands in the le-8 bucket (index 3).
	if buckets[3] != 1 {
		t.Errorf("lane buckets = %v, want the le-8 bucket to hold the traversal", buckets)
	}
	found := false
	for _, rec := range tel.Flight().Records() {
		if rec.Algorithm == BatchAlgorithmName {
			found = true
			break
		}
	}
	if !found {
		t.Error("no flight-recorder sample labelled msbfs")
	}
}
