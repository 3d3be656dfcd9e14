package mcbfs

import (
	"context"
	"testing"
	"time"

	"mcbfs/internal/core"
)

// TestSwapClosesOldSearchers proves the drain actually tears the old
// epoch down: every Searcher the retired snapshot owned reports Closed
// once the drain completes. This needs package-internal access to the
// snapshot's free channel, so it lives in package mcbfs.
func TestSwapClosesOldSearchers(t *testing.T) {
	g, err := GridGraph(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(g, PoolOptions{Size: 2, Search: Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Capture the old epoch's Searchers while the pool is idle: pop
	// them all, remember the pointers, put them back.
	old := pool.snap.Load()
	var searchers []*core.Searcher
	for i := 0; i < pool.size; i++ {
		searchers = append(searchers, <-old.free)
	}
	for _, s := range searchers {
		old.free <- s
	}

	g2, err := GridGraph(20, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Swap(g2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.Draining() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("old snapshot never finished draining")
		}
		time.Sleep(time.Millisecond)
	}
	for i, s := range searchers {
		if !s.Closed() {
			t.Errorf("old epoch's Searcher %d not closed after drain", i)
		}
	}
	if got := old.refs.Load(); got != 0 {
		t.Errorf("retired snapshot still holds %d references", got)
	}

	// The new epoch serves as usual.
	if _, err := pool.Query(context.Background(), 0); err != nil {
		t.Errorf("query on new epoch: %v", err)
	}
}

// TestPoolIngestRebuildSymmetricFlag: a Rebuild keeps the serving
// graph's Symmetric flag, and with it the batched queries' bottom-up
// levels, exactly when the graph it replaces is flagged and the
// ingested edges pair up. In every case the rebuilt graph grows to the
// ingested vertex 64, and batched answers on it equal a fresh
// Searcher's.
func TestPoolIngestRebuildSymmetricFlag(t *testing.T) {
	grid, err := GridGraph(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		edges []Edge
		want  bool
	}{
		{"paired ingest", grid.Undirected(), []Edge{{Src: 0, Dst: 64}, {Src: 9, Dst: 64}, {Src: 64, Dst: 0}, {Src: 64, Dst: 9}}, true},
		{"one direction only", grid.Undirected(), []Edge{{Src: 0, Dst: 64}, {Src: 64, Dst: 9}}, false},
		{"unequal multiplicities", grid.Undirected(), []Edge{{Src: 0, Dst: 64}, {Src: 0, Dst: 64}, {Src: 64, Dst: 0}}, false},
		{"unflagged base graph", grid, []Edge{{Src: 0, Dst: 64}, {Src: 64, Dst: 0}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewPool(tc.g, PoolOptions{Size: 1, Search: Options{Threads: 2}, Batching: BatchingOptions{Lanes: 4}})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if got := pool.snap.Load().g.Symmetric(); got != tc.g.Symmetric() {
				t.Fatalf("the serving graph's flag is %v before any rebuild, want %v", got, tc.g.Symmetric())
			}
			if _, err := pool.Ingest(tc.edges); err != nil {
				t.Fatal(err)
			}
			if _, err := pool.Rebuild(); err != nil {
				t.Fatal(err)
			}
			rebuilt := pool.snap.Load().g
			if rebuilt.NumVertices() != 65 || rebuilt.Symmetric() != tc.want {
				t.Fatalf("rebuilt graph: %d vertices, Symmetric %v; want 65 and %v", rebuilt.NumVertices(), rebuilt.Symmetric(), tc.want)
			}
			fresh, err := NewSearcher(rebuilt, Options{Algorithm: AlgSequential, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for _, root := range []Vertex{0, 9, 27, 63, 64} {
				got, err := pool.Query(context.Background(), root)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.BFS(root)
				if err != nil {
					t.Fatal(err)
				}
				if got.Reached != want.Reached || got.Levels != want.Levels || got.EdgesTraversed != want.EdgesTraversed {
					t.Errorf("root %d: batched Reached/Levels/Edges %d/%d/%d, fresh Searcher %d/%d/%d", root,
						got.Reached, got.Levels, got.EdgesTraversed, want.Reached, want.Levels, want.EdgesTraversed)
				}
			}
		})
	}
}
