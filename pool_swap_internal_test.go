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

// TestRebuildLeavesSymmetricFlagUnset: a Rebuild merges the pending
// edges into the serving graph through the plain CSR builder, which
// cannot know whether the caller ingested both directions of every
// edge, so the rebuilt snapshot is not flagged Symmetric even when the
// graph it replaced was, and even when the ingested edges are
// symmetric. Batched queries on it run top down.
func TestRebuildLeavesSymmetricFlagUnset(t *testing.T) {
	g0, err := GridGraph(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := g0.Undirected()
	pool, err := NewPool(g, PoolOptions{Size: 1, Search: Options{Threads: 1}, Batching: BatchingOptions{Lanes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if !pool.snap.Load().g.Symmetric() {
		t.Fatal("the serving graph lost its flag before any rebuild")
	}
	if _, err := pool.Ingest([]Edge{{Src: 0, Dst: 64}, {Src: 64, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rebuilt := pool.snap.Load().g
	if rebuilt.NumVertices() != 65 || rebuilt.Symmetric() {
		t.Errorf("rebuilt graph: %d vertices, Symmetric %v; want 65 and false", rebuilt.NumVertices(), rebuilt.Symmetric())
	}
	res, err := pool.Query(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 65 {
		t.Errorf("batched query on the rebuilt graph reached %d vertices, want 65", res.Reached)
	}
}
