package mcbfs_test

import (
	"context"
	"sync"
	"testing"

	"mcbfs"
)

// TestPoolOrderingEquivalence serves queries through a pool whose graph
// was relabeled under every non-natural ordering and checks answers are
// indistinguishable from a natural-order pool: callers keep original
// vertex ids in roots and parent arrays, and the reorder cost shows up
// in the metrics counter and telemetry exactly once.
func TestPoolOrderingEquivalence(t *testing.T) {
	g := poolTestGraph(t)
	roots := []mcbfs.Vertex{0, 1, 63, 64 * 32, 64*64 - 1}
	base := make([]mcbfs.Result, len(roots))
	for i, root := range roots {
		res, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		base[i] = *res
	}

	for _, o := range []mcbfs.Ordering{mcbfs.OrderDegree, mcbfs.OrderDegreeGroup, mcbfs.OrderBFS} {
		var metrics mcbfs.Metrics
		tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: 2, Metrics: &metrics})
		pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
			Size:      2,
			Search:    mcbfs.Options{Threads: 2, Ordering: o},
			Metrics:   &metrics,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}

		if got := metrics.ReorderNs.Load(); got <= 0 {
			t.Errorf("%s: ReorderNs = %d, want > 0", o, got)
		}
		info := tel.Ordering()
		if info == nil || info.Order != o.String() {
			t.Fatalf("%s: telemetry ordering info = %+v", o, info)
		}
		if info.TotalEdges != g.NumEdges() {
			t.Errorf("%s: telemetry TotalEdges = %d, want %d", o, info.TotalEdges, g.NumEdges())
		}

		// Concurrent clients: every pooled Searcher translates
		// independently (run with -race). Four clients share two
		// Searchers and interleave Search, which skips the parent
		// translation, with QueryFunc, which must still see a clean
		// caller-id parent array afterwards.
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, root := range roots {
					res, err := pool.Search(context.Background(), root, mcbfs.Query{})
					if err != nil {
						t.Errorf("%s root %d: Search: %v", o, root, err)
						return
					}
					if res.Reached != base[i].Reached || res.Levels != base[i].Levels || res.Parents != nil {
						t.Errorf("%s root %d: Search reached/levels %d/%d with %d parents, want %d/%d with none",
							o, root, res.Reached, res.Levels, len(res.Parents), base[i].Reached, base[i].Levels)
					}
					// QueryFunc holds the Searcher while fn runs, so the
					// translated parent array is safe to validate in place.
					err = pool.QueryFunc(context.Background(), root, mcbfs.Query{}, func(res *mcbfs.Result) error {
						if res.Reached != base[i].Reached || res.Levels != base[i].Levels {
							t.Errorf("%s root %d: reached/levels %d/%d, want %d/%d",
								o, root, res.Reached, res.Levels, base[i].Reached, base[i].Levels)
						}
						return mcbfs.ValidateTree(g, root, res.Parents)
					})
					if err != nil {
						t.Errorf("%s root %d: %v", o, root, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		pool.Close()
	}
}

// TestPoolOrderingBatchedEquivalence runs a reordered pool in batching
// mode: concurrently admitted queries coalesce into shared MS-BFS
// traversals over the relabeled graph, and every per-lane answer must
// still speak original ids.
func TestPoolOrderingBatchedEquivalence(t *testing.T) {
	g := poolTestGraph(t)
	roots := []mcbfs.Vertex{0, 7, 63, 64 * 11, 64*64 - 1, 5, 1000, 2000}
	base := make(map[mcbfs.Vertex]mcbfs.Result)
	for _, root := range roots {
		res, err := mcbfs.BFS(g, root, mcbfs.Options{Algorithm: mcbfs.AlgSequential, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		base[root] = *res
	}
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:     2,
		Search:   mcbfs.Options{Threads: 2, Ordering: mcbfs.OrderDegree},
		Batching: mcbfs.BatchingOptions{Lanes: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3*len(roots); i++ {
				root := roots[(c+i)%len(roots)]
				res, err := pool.Query(context.Background(), root)
				if err != nil {
					t.Errorf("root %d: %v", root, err)
					return
				}
				want := base[root]
				if res.Reached != want.Reached || res.Levels != want.Levels {
					t.Errorf("root %d: reached/levels %d/%d, want %d/%d",
						root, res.Reached, res.Levels, want.Reached, want.Levels)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPoolOrderingWarmQueryZeroAlloc pins the serving acceptance bar:
// a warm Pool.Query through the translation layer — root mapped in,
// touched-list parent scatter out, external reset — allocates nothing,
// in both direct and batching modes.
func TestPoolOrderingWarmQueryZeroAlloc(t *testing.T) {
	g := poolTestGraph(t)
	for _, batching := range []bool{false, true} {
		popt := mcbfs.PoolOptions{
			Size:   1,
			Search: mcbfs.Options{Threads: 2, Ordering: mcbfs.OrderDegree},
		}
		if batching {
			popt.Batching = mcbfs.BatchingOptions{Lanes: 1} // width 1: no admission window in the loop
		}
		pool, err := mcbfs.NewPool(g, popt)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
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
			t.Errorf("batching=%v: warm reordered query allocates %.1f objects/op, want 0", batching, avg)
		}
		pool.Close()
	}
}
