package mcbfs_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbfs"
	"mcbfs/internal/core"
)

// TestPoolBatchingConcurrentAdmission is the batching mode's core
// contract under contention (run with -race): many concurrent clients
// issue single-source queries, the pool coalesces them into shared
// MS-BFS traversals, and every client gets exactly the scalars a
// dedicated single-source search would have produced.
func TestPoolBatchingConcurrentAdmission(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 2},
		Metrics: &m,
		Batching: mcbfs.BatchingOptions{
			Lanes:  8,
			Window: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const clients = 16
	const perClient = 8
	// Precompute the reference scalars for every root the clients use.
	type ref struct {
		reached, edges int64
		levels         int
	}
	refs := make(map[mcbfs.Vertex]ref)
	for c := 0; c < clients; c++ {
		for i := 0; i < perClient; i++ {
			root := mcbfs.Vertex((c*131 + i*977) % g.NumVertices())
			if _, ok := refs[root]; !ok {
				r, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential})
				if err != nil {
					t.Fatal(err)
				}
				refs[root] = ref{r.Reached, r.EdgesTraversed, r.Levels}
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				root := mcbfs.Vertex((c*131 + i*977) % g.NumVertices())
				res, err := pool.Query(context.Background(), root)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				want := refs[root]
				if res.Reached != want.reached || res.EdgesTraversed != want.edges || res.Levels != want.levels {
					t.Errorf("client %d root %d: Reached=%d/%d Edges=%d/%d Levels=%d/%d",
						c, root, res.Reached, want.reached, res.EdgesTraversed, want.edges,
						res.Levels, want.levels)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	const total = clients * perClient
	if got := m.BatchLanes.Load(); got != total {
		t.Errorf("BatchLanes = %d, want %d (every query rides a batch)", got, total)
	}
	traversals := m.BatchTraversals.Load()
	if traversals < 1 || traversals > total {
		t.Errorf("BatchTraversals = %d, want within [1, %d]", traversals, total)
	}
	// The shared scans must not exceed what independent searches would
	// have paid; equality holds only if no two lanes ever shared a
	// traversal.
	if scanned, lane := m.BatchEdges.Load(), m.BatchLaneEdges.Load(); scanned > lane {
		t.Errorf("BatchEdges = %d exceeds BatchLaneEdges = %d", scanned, lane)
	}
}

// holdCtx is a context whose Err blocks until released: handed to a
// batched query it deterministically parks the batch runner at lane
// seeding, which is how the admission-shed tests fill the queue without
// racing a fast traversal.
type holdCtx struct {
	heldOnce sync.Once
	held     chan struct{} // closed on the first Err poll
	release  chan struct{}
}

func newHoldCtx() *holdCtx {
	return &holdCtx{held: make(chan struct{}), release: make(chan struct{})}
}

func (c *holdCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *holdCtx) Done() <-chan struct{}       { return nil }
func (c *holdCtx) Value(any) any               { return nil }
func (c *holdCtx) Err() error {
	c.heldOnce.Do(func() { close(c.held) })
	<-c.release
	return nil
}

// TestPoolBatchingShed saturates the batching admission path and
// checks the shed is recorded before ErrPoolSaturated returns: the shed
// outcome total and the telemetry error-rate window that feeds /metrics.
//
// Setup: with Lanes=1 and Runners=1 the admission buffer holds one
// query and the reply free-list exactly 2 channels. Query A parks the
// runner (blocking lane context) while holding one. Two racing probes
// then contend for the last channel: whichever wins it is admitted and
// parks behind A, so the other deterministically sheds at its deadline.
func TestPoolBatchingShed(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: 1})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Telemetry: tel,
		Batching: mcbfs.BatchingOptions{
			Lanes:   1, // no admission window: the runner serves one query at a time
			Runners: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	hold := newHoldCtx()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold.release) }) }
	defer release() // runs before the deferred Close, so it cannot hang

	// Query A parks the runner at lane seeding via its blocking context.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Query(hold, 0); err != nil {
			t.Errorf("held query: %v", err)
		}
	}()
	<-hold.held

	// The two probes race for the one remaining reply channel. The
	// winner is admitted (it resolves with DeadlineExceeded once the
	// runner resumes and sees its dead lane context); the loser sheds.
	// They share one deadline, so the winner's context is dead by the
	// time the loser's shed lets the test release the runner.
	errCh := make(chan error, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(root mcbfs.Vertex) {
			defer wg.Done()
			_, err := pool.Query(ctx, root)
			errCh <- err
		}(mcbfs.Vertex(1 + i))
	}
	shedErr := <-errCh
	if !errors.Is(shedErr, mcbfs.ErrPoolSaturated) {
		t.Fatalf("saturated query error = %v, want ErrPoolSaturated", shedErr)
	}
	if !errors.Is(shedErr, context.DeadlineExceeded) {
		t.Errorf("saturated query error = %v, want context.DeadlineExceeded in chain", shedErr)
	}
	if got := tel.OutcomeCount(mcbfs.OutcomeShed); got != 1 {
		t.Errorf("OutcomeShed count = %d, want 1", got)
	}
	if rate := tel.ErrorRate(time.Minute); rate <= 0 {
		t.Errorf("ErrorRate = %v, want > 0 after a shed", rate)
	}
	release()
	// The absorbed probe must resolve with its context's error, not
	// hang and not shed.
	if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, mcbfs.ErrPoolSaturated) {
		t.Errorf("absorbed probe error = %v, want bare context.DeadlineExceeded", err)
	}
	wg.Wait()
}

// TestPoolBatchingCancelledQuery routes a dead-context query through
// the batched path: it must come back with the context's error and be
// counted as cancelled, while a healthy sibling query is unaffected.
func TestPoolBatchingCancelledQuery(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Metrics:  &m,
		Batching: mcbfs.BatchingOptions{Lanes: 4, Window: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Query(dead, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("dead-context query error = %v, want context.Canceled", err)
	}
	if got := pool.Telemetry().OutcomeCount(mcbfs.OutcomeCancelled); got != 1 {
		t.Errorf("cancelled outcomes = %d, want 1", got)
	}
	ref, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if res.Reached != ref.Reached {
		t.Errorf("healthy query Reached = %d, want %d", res.Reached, ref.Reached)
	}
}

// panicCtx is a query context whose Err panics. The batch runner polls
// it while seeding the lanes, on the runner's own goroutine, and a
// Searcher as its search starts, inside the borrow's recover scope, so
// the pool recovers the panic as a panicking batch or query.
type panicCtx struct{ context.Context }

func (panicCtx) Err() error { panic("lane context exploded") }

// queryBatch issues one Query per root concurrently, root i under
// ctxs[i], and returns each call's result and error.
func queryBatch(pool *mcbfs.Pool, ctxs []context.Context, roots []mcbfs.Vertex) ([]mcbfs.Result, []error) {
	res := make([]mcbfs.Result, len(roots))
	errs := make([]error, len(roots))
	var wg sync.WaitGroup
	for i := range roots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = pool.Query(ctxs[i], roots[i])
		}()
	}
	wg.Wait()
	return res, errs
}

// fourLanes is a batching configuration whose four concurrent queries
// always share one batch: the window, far longer than any test, closes
// as soon as the fourth lane arrives.
var fourLanes = mcbfs.BatchingOptions{Lanes: 4, Window: 10 * time.Second}

// TestPoolBatchingBadRootFailsOnlyItsLane batches a root outside the
// graph with three valid ones: the bad lane alone fails, with the error
// a Searcher-slot query for that root gets, and records no outcome;
// the valid lanes answer exactly what a single-source search does.
func TestPoolBatchingBadRootFailsOnlyItsLane(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Telemetry: tel,
		Batching:  fourLanes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	bad := mcbfs.Vertex(g.NumVertices() + 5)
	// A depth-bounded query takes a Searcher slot.
	_, slotErr := pool.Search(context.Background(), bad, mcbfs.Query{MaxLevels: -1})
	if slotErr == nil {
		t.Fatalf("Searcher-slot query from root %d succeeded", bad)
	}
	bg := context.Background()
	roots := []mcbfs.Vertex{0, 1, 2, bad}
	res, errs := queryBatch(pool, []context.Context{bg, bg, bg, bg}, roots)
	for i, root := range roots[:3] {
		ref, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential})
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil {
			t.Errorf("root %d batched with a bad root: %v", root, errs[i])
			continue
		}
		if res[i].Reached != ref.Reached || res[i].EdgesTraversed != ref.EdgesTraversed || res[i].Levels != ref.Levels {
			t.Errorf("root %d: Reached=%d/%d Edges=%d/%d Levels=%d/%d", root,
				res[i].Reached, ref.Reached, res[i].EdgesTraversed, ref.EdgesTraversed, res[i].Levels, ref.Levels)
		}
	}
	if errs[3] == nil || errs[3].Error() != slotErr.Error() {
		t.Errorf("bad lane error = %v, want the Searcher-slot error %q", errs[3], slotErr)
	}
	if got := tel.OutcomeCount(mcbfs.OutcomeOK); got != 3 {
		t.Errorf("ok outcomes = %d, want 3 (the bad root records none)", got)
	}
	if got := tel.Histogram().Snapshot().Count; got != 3 {
		t.Errorf("latency samples = %d, want 3", got)
	}
}

// TestPoolBatchingPanicRecordsEveryLane panics a batch of four queries
// through one lane's context: every lane returns the panic error and
// records one panic outcome and one latency sample, and the runner's
// rebuilt BatchSearcher serves the next batch exactly.
func TestPoolBatchingPanicRecordsEveryLane(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Telemetry: tel,
		Batching:  fourLanes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	bg := context.Background()
	roots := []mcbfs.Vertex{0, 1, 2, 3}
	_, errs := queryBatch(pool, []context.Context{bg, bg, panicCtx{bg}, bg}, roots)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("lane %d of the panicking batch: %v, want a panic error", i, err)
		}
	}
	if got := tel.OutcomeCount(mcbfs.OutcomePanic); got != 4 {
		t.Errorf("panic outcomes = %d, want 4 (one per lane)", got)
	}
	if got := tel.Histogram().Snapshot().Count; got != 4 {
		t.Errorf("latency samples = %d, want 4", got)
	}

	res, errs := queryBatch(pool, []context.Context{bg, bg, bg, bg}, roots)
	for i, root := range roots {
		ref, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential})
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil || res[i].Reached != ref.Reached || res[i].Levels != ref.Levels {
			t.Errorf("root %d after the panic: Reached=%d/%d Levels=%d/%d, err %v",
				root, res[i].Reached, ref.Reached, res[i].Levels, ref.Levels, errs[i])
		}
	}
}

// TestPoolBatchingOverridesBypass checks that a query with a depth
// override still uses the Searcher pool: it must succeed, keep its
// bound and not ride a batch.
func TestPoolBatchingOverridesBypass(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Metrics:  &m,
		Batching: mcbfs.BatchingOptions{Lanes: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := pool.Search(context.Background(), 0, mcbfs.Query{MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached == 0 || res.Levels > 2 {
		t.Errorf("override query: %d levels, %d reached", res.Levels, res.Reached)
	}
	if got := m.BatchLanes.Load(); got != 0 {
		t.Errorf("override query rode a batch (BatchLanes = %d)", got)
	}
	// QueryFunc also bypasses batching — it needs the borrow-held
	// parents.
	err = pool.QueryFunc(context.Background(), 3, mcbfs.Query{}, func(res *mcbfs.Result) error {
		return mcbfs.ValidateTree(g, 3, res.Parents)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BatchLanes.Load(); got != 0 {
		t.Errorf("QueryFunc rode a batch (BatchLanes = %d)", got)
	}
}

// TestPoolBatchingClose closes a batching pool with traffic in flight:
// every query must resolve (result or ErrPoolClosed), and Close must
// not hang.
func TestPoolBatchingClose(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Batching: mcbfs.BatchingOptions{Lanes: 8, Window: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := pool.Query(context.Background(), mcbfs.Vertex(c))
				if err != nil && !errors.Is(err, mcbfs.ErrPoolClosed) {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if err != nil {
					return
				}
			}
		}(c)
	}
	time.Sleep(5 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if _, err := pool.Query(context.Background(), 0); !errors.Is(err, mcbfs.ErrPoolClosed) {
		t.Errorf("post-close query error = %v, want ErrPoolClosed", err)
	}
}

// TestPoolBatchedQueryZeroAlloc checks the warm batched query path
// allocates nothing per query: the request is a channel send of a
// value and the reply channel comes from the pool's free-list.
func TestPoolBatchedQueryZeroAlloc(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Batching: mcbfs.BatchingOptions{Lanes: 1}, // width 1: no admission window in the loop
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	// Warm every path once.
	for i := 0; i < 3; i++ {
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
		t.Errorf("warm batched query allocates %.1f objects/op, want 0", avg)
	}
}

// TestPoolBatchingRejectsMaxLevels: the batch engine runs every lane to
// full depth, so a batching pool must refuse a depth bound rather than
// ignore it. Ignored, the bound would give one root two answers on one
// pool: on a 32x32 grid with Search.MaxLevels 2, a batched Query(0)
// reaches 1024 vertices in 63 levels, QueryFunc 6 in 2.
func TestPoolBatchingRejectsMaxLevels(t *testing.T) {
	g, err := mcbfs.GridGraph(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	search := mcbfs.Options{Threads: 2, MaxLevels: 2}
	if pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Search: search, Batching: mcbfs.BatchingOptions{Lanes: 4}}); err == nil {
		pool.Close()
		t.Fatal("NewPool accepted Batching with Search.MaxLevels 2")
	}
	// The bound itself stays valid without batching.
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Search: search})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 6 || res.Levels != 2 {
		t.Errorf("depth-bounded query: Reached/Levels = %d/%d, want 6/2", res.Reached, res.Levels)
	}
}

// TestPoolBatchingRejectsWideLanes: a batch lane is one bit of a 64-bit
// word, so NewPool refuses more lanes than that.
func TestPoolBatchingRejectsWideLanes(t *testing.T) {
	pool, err := mcbfs.NewPool(poolTestGraph(t), mcbfs.PoolOptions{Batching: mcbfs.BatchingOptions{Lanes: mcbfs.MaxBatchLanes + 1}})
	if err == nil {
		pool.Close()
		t.Fatalf("NewPool accepted Batching.Lanes %d", mcbfs.MaxBatchLanes+1)
	}
}

// TestPoolBatchingUndirectedDirections serves concurrent batched
// queries on an Undirected R-MAT, which is flagged Symmetric so the
// batch engine may expand levels bottom up, in natural order and
// reordered, with the engine's direction rule, every level forced top
// down, and every level forced bottom up. Every answer's scalars must
// equal a single-source search's.
func TestPoolBatchingUndirectedDirections(t *testing.T) {
	g0, err := mcbfs.RMATGraph(11, 1<<14, mcbfs.GTgraphDefaults, 31)
	if err != nil {
		t.Fatal(err)
	}
	g := g0.Undirected()
	n := g.NumVertices()
	var roots []mcbfs.Vertex
	for v := 0; len(roots) < 24; v += 37 {
		if g.Degree(mcbfs.Vertex(v%n)) > 0 {
			roots = append(roots, mcbfs.Vertex(v%n))
		}
	}
	want := make(map[mcbfs.Vertex]*mcbfs.Result)
	for _, root := range roots {
		res, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[root] = res
	}
	for _, dir := range []core.Direction{core.DirectionAuto, core.DirectionTopDown, core.DirectionBottomUp} {
		for _, order := range []mcbfs.Ordering{mcbfs.OrderNatural, mcbfs.OrderDegreeGroup} {
			prev := core.SetDirection(dir)
			pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
				Size:     1,
				Search:   mcbfs.Options{Threads: 2, Ordering: order},
				Batching: mcbfs.BatchingOptions{Lanes: 16, Window: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < len(roots); i++ {
						root := roots[(c*5+i)%len(roots)]
						res, err := pool.Query(context.Background(), root)
						if err != nil {
							t.Errorf("direction %d %s root %d: %v", dir, order, root, err)
							return
						}
						w := want[root]
						if res.Reached != w.Reached || res.Levels != w.Levels || res.EdgesTraversed != w.EdgesTraversed {
							t.Errorf("direction %d %s root %d: Reached/Levels/Edges %d/%d/%d, want %d/%d/%d", dir, order, root,
								res.Reached, res.Levels, res.EdgesTraversed, w.Reached, w.Levels, w.EdgesTraversed)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			pool.Close()
			core.SetDirection(prev)
		}
	}
}

// TestPoolBatchingSessionsHoldNoParents: a batch runner returns only
// lane scalars, so its MS-BFS session records no parents. A 64-lane
// parent array on a 2^16-vertex graph is n×64×4 B = 16 MiB, and the
// heap a batching pool retains stays below that, both at NewPool and
// after a Swap has built the new epoch's runner session.
func TestPoolBatchingSessionsHoldNoParents(t *testing.T) {
	g, err := mcbfs.GridGraph(256, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	parentBytes := int64(g.NumVertices()) * mcbfs.MaxBatchLanes * 4
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     1,
		Search:   mcbfs.Options{Threads: 2},
		Batching: mcbfs.BatchingOptions{Lanes: mcbfs.MaxBatchLanes},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := heap() - base; got >= parentBytes {
		t.Errorf("NewPool retains %d B, not below one runner's parent array (%d B)", got, parentBytes)
	}
	if err := pool.Swap(g); err != nil {
		t.Fatal(err)
	}
	// The runner pins the new snapshot and runs this batch on its session.
	if _, err := pool.Query(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.Draining() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("old snapshot never finished draining")
		}
		time.Sleep(time.Millisecond)
	}
	if got := heap() - base; got >= parentBytes {
		t.Errorf("after a Swap the pool retains %d B, not below one runner's parent array (%d B)", got, parentBytes)
	}
}
