// Live updates: hot-swapping graph snapshots into a serving pool with
// zero downtime.
//
// A serving process usually outlives its graph — edges keep arriving
// while clients keep querying. The pool serves from immutable
// snapshots: Swap builds a full new epoch (Searchers, orderings, the
// lot) off to the side and publishes it atomically; queries in flight
// finish on the epoch that admitted them, whose Searchers are closed
// only after the last borrower returns. Ingest + Rebuild layer a
// buffered edge pipeline on top: edges accumulate invisibly and a
// rebuild merges them with the serving graph through the parallel CSR
// builder, swapping the grown graph in.
//
// Run with:
//
//	go run ./examples/liveupdate
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"mcbfs"
)

func main() {
	// Epoch 1: a modest scale-free graph.
	g, err := mcbfs.RMATGraph(14, 1<<18, mcbfs.GTgraphDefaults, 1)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:   2,
		Search: mcbfs.Options{Threads: 2},
		// Every 1<<15 buffered edges, merge + hot-swap automatically.
		RebuildThreshold: 1 << 15,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	// Continuous client traffic across every swap below. A client that
	// sees an error stops and leaves it for the final check.
	const clients = 4
	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	failed := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := pool.Query(context.Background(), 0); err != nil {
					failed <- err
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Explicit swap: replace the whole graph (a re-generated snapshot,
	// a reload from disk, ...). Traffic never pauses.
	g2, err := mcbfs.RMATGraph(14, 1<<18, mcbfs.GTgraphDefaults, 2)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := pool.Swap(g2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swapped to epoch %d in %v (queries so far: %d)\n",
		pool.Epoch(), time.Since(start).Round(time.Microsecond), queries.Load())

	// Incremental growth: buffer edges, then merge them in. Crossing
	// RebuildThreshold would trigger this rebuild automatically.
	var batch []mcbfs.Edge
	for v := 0; v < 1000; v++ {
		batch = append(batch, mcbfs.Edge{Src: 0, Dst: mcbfs.Vertex(v + 100)})
	}
	pending, err := pool.Ingest(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d edges (invisible until rebuild)\n", pending)
	epoch, err := pool.Rebuild()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt: epoch %d now serving %d edges\n", epoch, pool.Graph().NumEdges())

	stop.Store(true)
	wg.Wait()
	select {
	case err := <-failed:
		log.Fatalf("query: %v", err)
	default:
	}

	// Old epochs drain asynchronously once their last query returns.
	for pool.Draining() > 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("all retired snapshots drained; %d queries served across %d epochs with zero downtime\n",
		queries.Load(), pool.Epoch())
}
