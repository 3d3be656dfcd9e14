package mcbfs_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbfs"
)

// undirectedPath builds a symmetric path of n vertices: a BFS from
// vertex 0 reaches exactly n vertices, so with a distinct n per epoch
// every query result identifies the snapshot that served it.
func undirectedPath(t testing.TB, n int) *mcbfs.Graph {
	t.Helper()
	edges := make([]mcbfs.Edge, 0, 2*(n-1))
	for v := 0; v < n-1; v++ {
		edges = append(edges,
			mcbfs.Edge{Src: mcbfs.Vertex(v), Dst: mcbfs.Vertex(v + 1)},
			mcbfs.Edge{Src: mcbfs.Vertex(v + 1), Dst: mcbfs.Vertex(v)})
	}
	g, err := mcbfs.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitDrained polls until every retired snapshot has finished draining.
func waitDrained(t *testing.T, pool *mcbfs.Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pool.Draining() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshots still draining after 10s: %d", pool.Draining())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolSwapUnderLoad is the tentpole's acceptance test: continuous
// client traffic across three live Swaps, zero failed queries, and
// every result consistent with exactly one epoch — the path length its
// snapshot was built from. Per client the observed epoch must be
// monotone: once a query has been served by epoch k, no later query in
// that goroutine may see an older graph. Run with -race.
func TestPoolSwapUnderLoad(t *testing.T) {
	// Path length per epoch: epoch e serves sizes[e-1] vertices.
	sizes := []int{200, 300, 400, 500}
	epochOf := map[int64]int64{}
	for i, n := range sizes {
		epochOf[int64(n)] = int64(i + 1)
	}
	for _, mode := range []struct {
		name     string
		batching mcbfs.BatchingOptions
	}{
		{"direct", mcbfs.BatchingOptions{}},
		{"batching", mcbfs.BatchingOptions{Lanes: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			metrics := &mcbfs.Metrics{}
			pool, err := mcbfs.NewPool(undirectedPath(t, sizes[0]), mcbfs.PoolOptions{
				Size:     2,
				Search:   mcbfs.Options{Threads: 2},
				Metrics:  metrics,
				Batching: mode.batching,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			var stop atomic.Bool
			var queries atomic.Int64
			const clients = 6
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastEpoch int64
					for !stop.Load() {
						res, err := pool.Query(context.Background(), 0)
						if err != nil {
							errs <- err
							return
						}
						queries.Add(1)
						e, ok := epochOf[res.Reached]
						if !ok {
							t.Errorf("result reached %d vertices, matching no epoch", res.Reached)
							return
						}
						if e < lastEpoch {
							t.Errorf("epoch went backwards: %d after %d", e, lastEpoch)
							return
						}
						lastEpoch = e
					}
				}()
			}

			for _, n := range sizes[1:] {
				time.Sleep(20 * time.Millisecond) // let traffic hit the current epoch
				if err := pool.Swap(undirectedPath(t, n)); err != nil {
					t.Errorf("swap to %d vertices: %v", n, err)
				}
			}
			time.Sleep(20 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("query failed during swap: %v", err)
			}

			if got := pool.Epoch(); got != 4 {
				t.Errorf("Epoch() = %d after 3 swaps, want 4", got)
			}
			if got := metrics.Swaps.Load(); got != 3 {
				t.Errorf("Swaps = %d, want 3", got)
			}
			if got := metrics.SwapDegraded.Load(); got != 0 {
				t.Errorf("SwapDegraded = %d, want 0", got)
			}
			waitDrained(t, pool)
			if got := metrics.SnapshotsDrained.Load(); got != 3 {
				t.Errorf("SnapshotsDrained = %d, want 3 (current epoch still serving)", got)
			}
			if queries.Load() < clients {
				t.Errorf("only %d queries ran across the swaps", queries.Load())
			}
		})
	}
}

// TestPoolSwapDrainWaitsForBorrower pins the drain protocol: a Swap
// while a QueryFunc still holds its borrow must leave the old snapshot
// draining — Searchers open, the in-flight query unharmed — until the
// borrow is released, and only then tear it down.
func TestPoolSwapDrainWaitsForBorrower(t *testing.T) {
	metrics := &mcbfs.Metrics{}
	pool, err := mcbfs.NewPool(undirectedPath(t, 100), mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 1},
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	inFn := make(chan struct{})
	releaseFn := make(chan struct{})
	qdone := make(chan error, 1)
	go func() {
		qdone <- pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(res *mcbfs.Result) error {
			close(inFn)
			<-releaseFn
			if res.Reached != 100 {
				t.Errorf("in-flight query saw %d vertices, want the old epoch's 100", res.Reached)
			}
			return nil
		})
	}()
	<-inFn

	if err := pool.Swap(undirectedPath(t, 150)); err != nil {
		t.Fatal(err)
	}
	if got := pool.Draining(); got != 1 {
		t.Errorf("Draining() = %d with a borrow still held on the old epoch, want 1", got)
	}
	if got := metrics.SnapshotsDrained.Load(); got != 0 {
		t.Errorf("old snapshot drained while its borrower was still inside QueryFunc")
	}
	// New traffic is already on the new epoch while the old one drains.
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 150 {
		t.Errorf("post-swap query reached %d, want 150", res.Reached)
	}

	close(releaseFn)
	if err := <-qdone; err != nil {
		t.Fatalf("in-flight query failed across the swap: %v", err)
	}
	waitDrained(t, pool)
	if got := metrics.SnapshotsDrained.Load(); got != 1 {
		t.Errorf("SnapshotsDrained = %d after release, want 1", got)
	}
}

// TestPoolSwapAllocs checks the 0 allocs/op contract survives the
// snapshot indirection: warm queries between swaps allocate nothing,
// in both direct and batching mode.
func TestPoolSwapAllocs(t *testing.T) {
	for _, mode := range []struct {
		name     string
		batching mcbfs.BatchingOptions
	}{
		{"direct", mcbfs.BatchingOptions{}},
		{"batching", mcbfs.BatchingOptions{Lanes: 1}}, // width 1: no admission window in the loop
	} {
		t.Run(mode.name, func(t *testing.T) {
			pool, err := mcbfs.NewPool(undirectedPath(t, 100), mcbfs.PoolOptions{
				Size:     1,
				Search:   mcbfs.Options{Threads: 1},
				Batching: mode.batching,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			ctx := context.Background()
			if err := pool.Swap(undirectedPath(t, 150)); err != nil {
				t.Fatal(err)
			}
			waitDrained(t, pool)
			for i := 0; i < 3; i++ { // warm every path once
				if _, err := pool.Query(ctx, 0); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, err := pool.Query(ctx, 0); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Errorf("warm query after a swap allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// TestPoolSwapDegrades pins the degradation rule: when the new
// snapshot cannot be built the pool keeps serving the old epoch
// untouched and reports the failure, in both the Swap error and the
// SwapDegraded counter.
func TestPoolSwapDegrades(t *testing.T) {
	g := undirectedPath(t, 100)
	// Epoch 1 takes the caller's Reordered as given; a swapped-in graph
	// must be reordered under its Order, which no ordering implements.
	metrics := &mcbfs.Metrics{}
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 1, Reordered: &mcbfs.Reordered{Graph: g, Order: mcbfs.Ordering(99)}},
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if err := pool.Swap(undirectedPath(t, 150)); err == nil || !strings.Contains(err.Error(), "unknown ordering 99") {
		t.Fatalf("swap under an unknown ordering: %v, want the reorder's error", err)
	}
	if got := pool.Epoch(); got != 1 {
		t.Errorf("Epoch() = %d after failed swap, want 1", got)
	}
	if got := metrics.SwapDegraded.Load(); got != 1 {
		t.Errorf("SwapDegraded = %d, want 1", got)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatalf("query after failed swap: %v", err)
	}
	if res.Reached != 100 {
		t.Errorf("degraded pool reached %d, want the old epoch's 100", res.Reached)
	}
}

// TestPoolSwapReleasesRetiredGraph: once a retired epoch has drained,
// nothing in a batching pool still references its graph. The batch
// runner's session belongs to the epoch and closes with it, so an idle
// runner does not keep the old graph alive.
func TestPoolSwapReleasesRetiredGraph(t *testing.T) {
	collected := make(chan struct{})
	pool := func() *mcbfs.Pool {
		r, err := mcbfs.RMATGraph(12, 16<<12, mcbfs.Graph500Params, 5)
		if err != nil {
			t.Fatal(err)
		}
		g := r.Undirected()
		runtime.SetFinalizer(g, func(*mcbfs.Graph) { close(collected) })
		pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
			Size:     1,
			Search:   mcbfs.Options{Threads: 2},
			Batching: mcbfs.BatchingOptions{Lanes: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}()
	defer pool.Close()
	if _, err := pool.Query(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Swap(undirectedPath(t, 100)); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, pool)
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the retired epoch's graph is still reachable 2s after its drain")
		}
	}
}

// holdThenPanicCtx parks the batch that polls it, as holdCtx does, and
// panics once released.
type holdThenPanicCtx struct{ *holdCtx }

func (c holdThenPanicCtx) Err() error {
	c.holdCtx.Err()
	panic("lane context exploded")
}

// TestPoolSwapDuringBatchPanic: a batch pins the epoch it runs on, so a
// Swap in the middle of it leaves that epoch draining until the batch
// ends. When the batch then panics, the runner's replacement session is
// not built into the retired epoch: the drain skips the empty slot, and
// the next batch runs on the new epoch's session.
func TestPoolSwapDuringBatchPanic(t *testing.T) {
	metrics := &mcbfs.Metrics{}
	pool, err := mcbfs.NewPool(undirectedPath(t, 100), mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Metrics:  metrics,
		Batching: mcbfs.BatchingOptions{Lanes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	hc := holdThenPanicCtx{newHoldCtx()}
	errc := make(chan error, 1)
	go func() {
		_, err := pool.Query(hc, 0)
		errc <- err
	}()
	<-hc.held
	if err := pool.Swap(undirectedPath(t, 150)); err != nil {
		t.Fatal(err)
	}
	if got := pool.Draining(); got != 1 {
		t.Errorf("Draining() = %d with a batch still running on the old epoch, want 1", got)
	}
	close(hc.release)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("batch that panicked after the swap: %v, want a panic error", err)
	}
	waitDrained(t, pool)
	if got := metrics.SnapshotsDrained.Load(); got != 1 {
		t.Errorf("SnapshotsDrained = %d, want 1", got)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 150 {
		t.Errorf("batch after the swap reached %d, want the new epoch's 150", res.Reached)
	}
}

// TestPoolIngestRebuildDirectionOptimizing: a direction-optimizing pool
// built with its graph as Transpose answers with valid BFS trees after
// the serving graph becomes one that is not its own transpose — an
// Ingest+Rebuild of edges that do not pair up, or a Swap to a directed
// graph — because every later epoch builds its own in-edges.
func TestPoolIngestRebuildDirectionOptimizing(t *testing.T) {
	grid, err := mcbfs.GridGraph(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.Undirected()
	// The grid's edges from a lower to a higher id only.
	var down []mcbfs.Edge
	for u := 0; u < grid.NumVertices(); u++ {
		for _, v := range grid.Neighbors(mcbfs.Vertex(u)) {
			if int(v) > u {
				down = append(down, mcbfs.Edge{Src: mcbfs.Vertex(u), Dst: v})
			}
		}
	}
	directed, err := mcbfs.NewGraph(grid.NumVertices(), down)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		update func(*mcbfs.Pool) error
	}{
		{"unpaired ingest", func(pool *mcbfs.Pool) error {
			if _, err := pool.Ingest([]mcbfs.Edge{{Src: 0, Dst: 64}, {Src: 64, Dst: 9}}); err != nil {
				return err
			}
			_, err := pool.Rebuild()
			return err
		}},
		{"directed swap", func(pool *mcbfs.Pool) error { return pool.Swap(directed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
				Size:   1,
				Search: mcbfs.Options{Algorithm: mcbfs.AlgDirectionOptimizing, Threads: 2, Transpose: g},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if err := tc.update(pool); err != nil {
				t.Fatal(err)
			}
			served := pool.Graph()
			if served.Symmetric() {
				t.Fatal("the new epoch's graph is flagged Symmetric")
			}
			bad, first := 0, error(nil)
			for v := 0; v < served.NumVertices(); v++ {
				root := mcbfs.Vertex(v)
				err := pool.QueryFunc(context.Background(), root, mcbfs.Query{}, func(res *mcbfs.Result) error {
					return mcbfs.ValidateTree(served, root, res.Parents)
				})
				if err != nil {
					if bad++; first == nil {
						first = fmt.Errorf("root %d: %w", root, err)
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d roots returned invalid trees; first %v", bad, served.NumVertices(), first)
			}
		})
	}
}

// TestPoolIngestRebuild exercises the buffered-ingest path: edges
// buffer invisibly, an explicit Rebuild merges them through the
// parallel builder and swaps the grown graph in, and with
// RebuildThreshold set the rebuild triggers itself.
func TestPoolIngestRebuild(t *testing.T) {
	metrics := &mcbfs.Metrics{}
	pool, err := mcbfs.NewPool(undirectedPath(t, 50), mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 1},
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Extend the path: 49–50, 50–51 (symmetric), growing the graph to
	// 52 vertices.
	pending, err := pool.Ingest([]mcbfs.Edge{
		{Src: 49, Dst: 50}, {Src: 50, Dst: 49},
		{Src: 50, Dst: 51}, {Src: 51, Dst: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pending != 4 {
		t.Errorf("Ingest reported %d pending, want 4", pending)
	}
	if got := metrics.IngestedEdges.Load(); got != 4 {
		t.Errorf("IngestedEdges = %d, want 4", got)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 50 {
		t.Errorf("buffered edges leaked into the serving graph: reached %d, want 50", res.Reached)
	}

	epoch, err := pool.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Errorf("Rebuild returned epoch %d, want 2", epoch)
	}
	if got := pool.Pending(); got != 0 {
		t.Errorf("Pending() = %d after Rebuild, want 0", got)
	}
	res, err = pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 52 {
		t.Errorf("rebuilt graph reached %d, want 52", res.Reached)
	}

	// No-op rebuild: nothing pending, epoch unchanged.
	epoch, err = pool.Rebuild()
	if err != nil || epoch != 2 {
		t.Errorf("empty Rebuild = (%d, %v), want (2, nil)", epoch, err)
	}
}

func TestPoolIngestAutoRebuild(t *testing.T) {
	pool, err := mcbfs.NewPool(undirectedPath(t, 50), mcbfs.PoolOptions{
		Size:             1,
		Search:           mcbfs.Options{Threads: 1},
		RebuildThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, err := pool.Ingest([]mcbfs.Edge{{Src: 49, Dst: 50}, {Src: 50, Dst: 49}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("threshold-triggered rebuild never swapped a new epoch in")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 51 {
		t.Errorf("auto-rebuilt graph reached %d, want 51", res.Reached)
	}
}

// TestPoolSwapRecomputesOrdering checks a swapped-in graph gets its own
// locality ordering: queries on the new epoch still report original
// vertex ids (the translation layer was rebuilt for the new graph) and
// their parents form a valid BFS tree of the swapped-in graph.
func TestPoolSwapRecomputesOrdering(t *testing.T) {
	pool, err := mcbfs.NewPool(undirectedPath(t, 100), mcbfs.PoolOptions{
		Size:   1,
		Search: mcbfs.Options{Threads: 2, Ordering: mcbfs.OrderDegree},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	g2 := undirectedPath(t, 150)
	if err := pool.Swap(g2); err != nil {
		t.Fatal(err)
	}
	// Query from an endpoint that only exists in the new graph, and
	// validate the parent tree against it in original-id space.
	err = pool.QueryFunc(context.Background(), 149, mcbfs.Query{}, func(res *mcbfs.Result) error {
		if res.Reached != 150 {
			t.Errorf("reached %d from vertex 149, want 150", res.Reached)
		}
		return mcbfs.ValidateTree(g2, 149, res.Parents)
	})
	if err != nil {
		t.Fatalf("query on reordered swapped graph: %v", err)
	}
}

// TestPoolShedNotCancelled is the regression test for the
// double-counting defect: a query shed after its deadline expired
// matches both ErrPoolSaturated and context.DeadlineExceeded, and used
// to be counted as both shed and cancelled. Each outcome must land in
// exactly one counter.
func TestPoolShedNotCancelled(t *testing.T) {
	metrics := &mcbfs.Metrics{}
	pool, err := mcbfs.NewPool(undirectedPath(t, 100), mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 1},
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Occupy the only Searcher so the next query must wait and shed.
	hold := make(chan struct{})
	inFn := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
			close(inFn)
			<-hold
			return nil
		})
	}()
	<-inFn

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = pool.Query(ctx, 0)
	if err == nil {
		t.Fatal("query admitted while the pool was saturated")
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	tel := pool.Telemetry()
	if shed := tel.OutcomeCount(mcbfs.OutcomeShed); shed != 1 {
		t.Errorf("shed outcomes = %d, want 1", shed)
	}
	if cancelled := tel.OutcomeCount(mcbfs.OutcomeCancelled); cancelled != 0 {
		t.Errorf("cancelled outcomes = %d for a shed query, want 0 (double-counted)", cancelled)
	}
}
