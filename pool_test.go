package mcbfs_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbfs"
)

// poolTestGraph is a symmetric grid (so the direction-optimizing tier
// can run with the graph as its own transpose) with enough levels that
// every tier does real level-synchronous work.
func poolTestGraph(t *testing.T) *mcbfs.Graph {
	t.Helper()
	g, err := mcbfs.GridGraph(64, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPoolConcurrentQueries hammers a small pool from many more clients
// than Searchers, mixing every algorithm tier per query, and checks each
// answer against a fresh reference — the pool's core contract under
// contention (run it with -race).
func TestPoolConcurrentQueries(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:   2,
		Search: mcbfs.Options{Threads: 2, Transpose: g},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", pool.Size())
	}

	ref, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	algs := []mcbfs.Algorithm{
		mcbfs.AlgSequential, mcbfs.AlgParallelSimple, mcbfs.AlgSingleSocket,
		mcbfs.AlgMultiSocket, mcbfs.AlgDirectionOptimizing,
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				alg := algs[(c+i)%len(algs)]
				res, err := pool.Search(context.Background(), 0, mcbfs.Query{Algorithm: alg})
				if err != nil {
					t.Errorf("client %d query %d (%v): %v", c, i, alg, err)
					return
				}
				if res.Reached != ref.Reached || res.Levels != ref.Levels {
					t.Errorf("client %d (%v): reached %d levels %d, want %d/%d",
						c, alg, res.Reached, res.Levels, ref.Reached, ref.Levels)
					return
				}
				if res.Parents != nil || res.PerLevel != nil || res.Trace != nil {
					t.Errorf("client %d: pooled slices leaked out of Query", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPoolQueryFunc checks the borrow-held read path: fn sees the full
// Result, including Parents, and they validate as a BFS tree.
func TestPoolQueryFunc(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: mcbfs.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	err = pool.QueryFunc(context.Background(), 5, mcbfs.Query{}, func(res *mcbfs.Result) error {
		if res.Parents == nil {
			return errors.New("QueryFunc result has nil Parents")
		}
		return mcbfs.ValidateTree(g, 5, res.Parents)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolSaturation blocks the pool's only Searcher and checks that a
// second query waits only as long as its deadline, then sheds with an
// error matching both ErrPoolSaturated and context.DeadlineExceeded.
func TestPoolSaturation(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 2},
		Metrics: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	hold := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
			close(held)
			<-hold // keep the borrow while the other query times out
			return nil
		})
		if err != nil {
			t.Errorf("holding query: %v", err)
		}
	}()
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = pool.Query(ctx, 0)
	if !errors.Is(err, mcbfs.ErrPoolSaturated) {
		t.Errorf("saturated query: %v, want ErrPoolSaturated", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("saturated query: %v, want context.DeadlineExceeded in chain", err)
	}
	close(hold)
	wg.Wait()
	if shed := m.Shed.Load(); shed != 1 {
		t.Errorf("Shed = %d, want 1", shed)
	}
}

// TestPoolPanicRecovery panics inside a QueryFunc callback and checks
// the pool discards that Searcher, rebuilds the slot, counts the
// recovery, and keeps serving exact answers.
func TestPoolPanicRecovery(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:    1,
		Search:  mcbfs.Options{Threads: 2},
		Metrics: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	err = pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
		panic("reader exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking query returned %v, want a panic error", err)
	}
	if rec := m.Recovered.Load(); rec != 1 {
		t.Errorf("Recovered = %d, want 1", rec)
	}

	ref, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if res.Reached != ref.Reached || res.Levels != ref.Levels {
		t.Fatalf("after recovery: reached %d levels %d, want %d/%d",
			res.Reached, res.Levels, ref.Reached, ref.Levels)
	}
}

// TestPoolCancelledQuery checks context-driven unwinding through the
// pool: a cancelled query reports ctx.Err(), is counted as cancelled in
// both the Metrics and the Telemetry sink (it takes an idle Searcher and
// returns at the search's dead-on-arrival check), and the Searcher it
// borrowed serves the next query exactly.
func TestPoolCancelledQuery(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Metrics:   &m,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Query(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: %v, want context.Canceled", err)
	}
	if c := m.Cancelled.Load(); c != 1 {
		t.Errorf("Cancelled = %d, want 1", c)
	}
	if c := tel.OutcomeCount(mcbfs.OutcomeCancelled); c != 1 {
		t.Errorf("telemetry cancelled outcomes = %d, want 1", c)
	}

	ref, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != ref.Reached || res.Levels != ref.Levels {
		t.Fatalf("after cancel: reached %d levels %d, want %d/%d",
			res.Reached, res.Levels, ref.Reached, ref.Levels)
	}
}

// TestPoolQueryFuncErrorNotCancelled checks that QueryFunc counts a
// query's outcome from its search, not from fn: a completed search whose
// fn returns a context error is returned as that error but counted as
// ok, in both the Metrics and the Telemetry sink.
func TestPoolQueryFuncErrorNotCancelled(t *testing.T) {
	g := poolTestGraph(t)
	var m mcbfs.Metrics
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Metrics:   &m,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	err = pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
		return context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryFunc = %v, want fn's context.DeadlineExceeded", err)
	}
	if c := m.Cancelled.Load(); c != 0 {
		t.Errorf("Cancelled = %d, want 0", c)
	}
	if c := tel.OutcomeCount(mcbfs.OutcomeOK); c != 1 {
		t.Errorf("telemetry ok outcomes = %d, want 1", c)
	}
}

// TestPoolDefaultTimeout checks both sides of the per-query default: an
// impossible default bounds deadline-free queries, and a query carrying
// its own (satisfiable) deadline is not re-bounded by it.
func TestPoolDefaultTimeout(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:           1,
		Search:         mcbfs.Options{Threads: 2},
		DefaultTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, err := pool.Query(context.Background(), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query under 1ns default timeout: %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := pool.Query(ctx, 0); err != nil {
		t.Fatalf("query with own generous deadline: %v", err)
	}
}

// TestPoolClose checks shutdown semantics: queries after Close fail
// with ErrPoolClosed, waiting acquirers are released, and Close is
// idempotent.
func TestPoolClose(t *testing.T) {
	g := poolTestGraph(t)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: mcbfs.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Query(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Query(context.Background(), 0); !errors.Is(err, mcbfs.ErrPoolClosed) {
		t.Errorf("query after Close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// BenchmarkPoolQueryWarm measures the serving fast path: a warm,
// deadline-free, uncancelled Query must stay at zero heap allocations
// per operation, exactly like a bare Searcher search.
func BenchmarkPoolQueryWarm(b *testing.B) {
	g, err := mcbfs.GridGraph(64, 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: mcbfs.Options{Threads: 2}})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	if _, err := pool.Query(ctx, 0); err != nil { // warm the session
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Query(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}
