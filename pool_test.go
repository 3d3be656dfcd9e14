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

// TestPoolConcurrentQueries hammers a small pool of each algorithm tier
// from many more clients than Searchers, and checks each answer against
// a fresh reference — the pool's core contract under contention (run it
// with -race).
func TestPoolConcurrentQueries(t *testing.T) {
	g := poolTestGraph(t)
	ref, err := mcbfs.BFS(g, 0, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	algs := []mcbfs.Algorithm{
		mcbfs.AlgSequential, mcbfs.AlgParallelSimple, mcbfs.AlgSingleSocket,
		mcbfs.AlgMultiSocket, mcbfs.AlgDirectionOptimizing,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
				Size:   2,
				Search: mcbfs.Options{Algorithm: alg, Threads: 2, Transpose: g},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if pool.Size() != 2 {
				t.Fatalf("Size() = %d, want 2", pool.Size())
			}
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						res, err := pool.Query(context.Background(), 0)
						if err != nil {
							t.Errorf("client %d query %d: %v", c, i, err)
							return
						}
						if res.Reached != ref.Reached || res.Levels != ref.Levels {
							t.Errorf("client %d: reached %d levels %d, want %d/%d",
								c, res.Reached, res.Levels, ref.Reached, ref.Levels)
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
		})
	}
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
	if shed := pool.Telemetry().OutcomeCount(mcbfs.OutcomeShed); shed != 1 {
		t.Errorf("shed outcomes = %d, want 1", shed)
	}
}

// TestPoolPanicRecovery panics inside a QueryFunc callback and checks
// the pool discards that Searcher, rebuilds the slot, counts the panic
// outcome, and keeps serving exact answers.
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
	if rec := pool.Telemetry().OutcomeCount(mcbfs.OutcomePanic); rec != 1 {
		t.Errorf("panic outcomes = %d, want 1", rec)
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
// pool: a cancelled query reports ctx.Err(), is counted as cancelled by
// the Telemetry hub (it takes an idle Searcher and returns at the
// search's dead-on-arrival check), and the Searcher it borrowed serves
// the next query exactly.
func TestPoolCancelledQuery(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
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
// ok, and not as cancelled.
func TestPoolQueryFuncErrorNotCancelled(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
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
	if c := tel.OutcomeCount(mcbfs.OutcomeCancelled); c != 0 {
		t.Errorf("telemetry cancelled outcomes = %d, want 0", c)
	}
	if c := tel.OutcomeCount(mcbfs.OutcomeOK); c != 1 {
		t.Errorf("telemetry ok outcomes = %d, want 1", c)
	}
}

// outcomeCounts reads a hub's four outcome totals (ok, cancelled, shed,
// panic) and its latency histogram's sample count.
func outcomeCounts(tel *mcbfs.Telemetry) [5]int64 {
	return [5]int64{
		tel.OutcomeCount(mcbfs.OutcomeOK),
		tel.OutcomeCount(mcbfs.OutcomeCancelled),
		tel.OutcomeCount(mcbfs.OutcomeShed),
		tel.OutcomeCount(mcbfs.OutcomePanic),
		int64(tel.Histogram().Snapshot().Count),
	}
}

// TestOneOutcomePerQuery crosses the three admission paths — Search on
// a Searcher slot, QueryFunc, and a batched Query — with the four
// outcomes, and checks that each query moves its own outcome total and
// the latency histogram by exactly one, and nothing else. A root
// outside the graph is refused before it searches and moves neither.
// Each panic is raised where the pool can recover it: a context whose
// Err panics, which the Searcher polls on the caller's goroutine as the
// search starts and the batch runner polls while seeding the lanes; and
// QueryFunc's callback.
func TestOneOutcomePerQuery(t *testing.T) {
	g := poolTestGraph(t)
	type query func(pool *mcbfs.Pool, ctx context.Context, root mcbfs.Vertex, panics bool) error
	// holdSlot saturates a one-Searcher pool with a QueryFunc parked in
	// its callback; the probe then sheds at its deadline.
	holdSlot := func(t *testing.T, pool *mcbfs.Pool, q query) (func() error, func()) {
		hold, held, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			done <- pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
				close(held)
				<-hold
				return nil
			})
		}()
		<-held
		probe := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			return q(pool, ctx, 0, false)
		}
		return probe, func() {
			close(hold)
			if err := <-done; err != nil {
				t.Errorf("holding query: %v", err)
			}
		}
	}
	// holdRunner saturates a one-lane, one-deep batching pool as
	// TestPoolBatchingShed does: one query parks the runner, two probes
	// race for the last admission slot, and the loser sheds first.
	holdRunner := func(t *testing.T, pool *mcbfs.Pool, q query) (func() error, func()) {
		hc := newHoldCtx()
		errs := make(chan error, 3)
		go func() { errs <- q(pool, hc, 0, false) }()
		<-hc.held
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		probe := func() error {
			for i := 0; i < 2; i++ {
				go func() { errs <- q(pool, ctx, 0, false) }()
			}
			return <-errs
		}
		return probe, func() {
			close(hc.release)
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("absorbed query: %v", err)
				}
			}
			cancel()
		}
	}
	paths := []struct {
		name  string
		opt   mcbfs.PoolOptions
		query query
		hold  func(*testing.T, *mcbfs.Pool, query) (func() error, func())
	}{
		{
			name: "search",
			opt:  mcbfs.PoolOptions{Search: mcbfs.Options{Threads: 2}},
			query: func(pool *mcbfs.Pool, ctx context.Context, root mcbfs.Vertex, panics bool) error {
				if panics {
					ctx = panicCtx{ctx}
				}
				_, err := pool.Search(ctx, root, mcbfs.Query{})
				return err
			},
			hold: holdSlot,
		},
		{
			name: "queryfunc",
			opt:  mcbfs.PoolOptions{Search: mcbfs.Options{Threads: 2}},
			query: func(pool *mcbfs.Pool, ctx context.Context, root mcbfs.Vertex, panics bool) error {
				return pool.QueryFunc(ctx, root, mcbfs.Query{}, func(*mcbfs.Result) error {
					if panics {
						panic("reader exploded")
					}
					return nil
				})
			},
			hold: holdSlot,
		},
		{
			name: "batched",
			opt: mcbfs.PoolOptions{
				Search:   mcbfs.Options{Threads: 2},
				Batching: mcbfs.BatchingOptions{Lanes: 1, Runners: 1},
			},
			query: func(pool *mcbfs.Pool, ctx context.Context, root mcbfs.Vertex, panics bool) error {
				if panics {
					ctx = panicCtx{ctx}
				}
				_, err := pool.Query(ctx, root)
				return err
			},
			hold: holdRunner,
		},
	}
	names := [5]string{"ok", "cancelled", "shed", "panic", "latency samples"}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
			opt := path.opt
			opt.Size, opt.Telemetry = 1, tel
			pool, err := mcbfs.NewPool(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			bg := context.Background()
			dead, cancel := context.WithCancel(bg)
			cancel()
			bad := mcbfs.Vertex(g.NumVertices() + 5)
			for _, row := range []struct {
				outcome int // index into names; -1 records nothing
				run     func() error
				wantErr func(error) bool
			}{
				{0, func() error { return path.query(pool, bg, 0, false) },
					func(err error) bool { return err == nil }},
				{1, func() error { return path.query(pool, dead, 0, false) },
					func(err error) bool { return errors.Is(err, context.Canceled) }},
				{2, nil, func(err error) bool { return errors.Is(err, mcbfs.ErrPoolSaturated) }},
				{3, func() error { return path.query(pool, bg, 0, true) },
					func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked") }},
				{-1, func() error { return path.query(pool, bg, bad, false) },
					func(err error) bool { return err != nil && strings.Contains(err.Error(), "out of range") }},
			} {
				run, release := row.run, func() {}
				if run == nil {
					run, release = path.hold(t, pool, path.query)
				}
				before := outcomeCounts(tel)
				err := run()
				after := outcomeCounts(tel)
				release()
				label := "out of range"
				var want [5]int64
				if row.outcome >= 0 {
					label = names[row.outcome]
					want[row.outcome], want[4] = 1, 1
				}
				if !row.wantErr(err) {
					t.Errorf("%s query returned %v", label, err)
				}
				for i := range want {
					if got := after[i] - before[i]; got != want[i] {
						t.Errorf("%s query moved %s by %d, want %d", label, names[i], got, want[i])
					}
				}
			}
		})
	}
}

// TestNewPoolRejectsForeignMetrics pins the one home of a pool's
// counters: given a hub, PoolOptions.Metrics must be nil or the hub's
// own Metrics, and any other Metrics fails NewPool; given no hub,
// Metrics gets one that counts into it.
func TestNewPoolRejectsForeignMetrics(t *testing.T) {
	g := poolTestGraph(t)
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{})
	search := mcbfs.Options{Threads: 1}
	if pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: search, Telemetry: tel, Metrics: &mcbfs.Metrics{}}); err == nil {
		pool.Close()
		t.Fatal("NewPool accepted a Metrics other than its hub's")
	}
	for _, m := range []*mcbfs.Metrics{nil, tel.Metrics()} {
		pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: search, Telemetry: tel, Metrics: m})
		if err != nil {
			t.Fatalf("Metrics %p with the hub's own %p: %v", m, tel.Metrics(), err)
		}
		pool.Close()
	}
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Size: 1, Search: search, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Telemetry() == nil || pool.Telemetry().Metrics() != &m {
		t.Fatal("a pool given Metrics alone did not build a hub counting into it")
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
