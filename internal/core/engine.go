package core

import (
	"errors"
	"sync"

	"mcbfs/internal/affinity"
	"mcbfs/internal/graph"
)

// engine is the level-synchronous machinery that Searcher and
// BatchSearcher both embed: the session's graph, bound under its vertex
// ordering, and a persistent pool of workers. The workers are spawned
// once (and pinned once, under PinThreads) and park on the gate between
// jobs. The caller writes a job description, passes the gate to launch
// the job and passes it again once every worker has finished. Inside a
// search the workers meet at the level barrier, whose last arriver is
// the level's coordinator. The gate's mutex publishes the caller's
// pre-launch writes to the workers and the workers' finish writes back,
// which is what lets a session's reset clear with plain stores.
//
// Each session keeps its own level loop, worker state, touched-list walk
// and result assembly, and hands the engine its side of the two jobs.
type engine struct {
	// g is the graph the session searches: the caller's, or its
	// relabeled copy under an ordering, in which case perm maps caller
	// ids into it and inv maps them back. Both are nil in natural order.
	g          *graph.Graph
	perm, inv  []graph.Vertex
	n, workers int

	// bar synchronizes the workers inside a search (workers parties);
	// gate hands jobs between the caller and the pool (workers+1
	// parties, used alternately as launch and finish). job is the kind
	// the next launch runs and jobs the session that runs it.
	bar, gate *barrier
	job       jobKind
	jobs      sessionJobs

	// wg joins the workers in Close: each worker's deferred unpin must
	// complete before Close returns, or it could race the pinning of a
	// successor's workers.
	wg     sync.WaitGroup
	closed bool
}

// jobKind is what the worker pool is asked to run between gates.
type jobKind int

const (
	jobSearch jobKind = iota
	jobClear
)

// sessionJobs is a session's side of its engine: worker w's share of a
// search and of the full clear that resets the session after a search
// that touched a large share of the graph.
type sessionJobs interface {
	levelWorker(w int)
	clearShard(w int)
}

// bindOrdering binds the engine to g under a vertex ordering: rd when it
// is non-nil, which must have been computed from g, else ord, which is
// applied here unless it is graph.OrderNatural.
func (e *engine) bindOrdering(g *graph.Graph, ord graph.Ordering, rd *graph.Reordered) error {
	if g == nil {
		return errors.New("core: nil graph")
	}
	e.g, e.n = g, g.NumVertices()
	if rd == nil && ord != graph.OrderNatural {
		var err error
		if rd, err = g.Reorder(ord); err != nil {
			return err
		}
	}
	if rd == nil {
		return nil
	}
	if rd.Graph == nil || rd.Graph.NumVertices() != e.n || rd.Graph.NumEdges() != g.NumEdges() {
		return errors.New("core: Reordered does not match the graph")
	}
	if rd.Perm != nil && (len(rd.Perm) != e.n || len(rd.Inv) != e.n) {
		return errors.New("core: Reordered permutation length mismatch")
	}
	e.g, e.perm, e.inv = rd.Graph, rd.Perm, rd.Inv
	return nil
}

// start spawns the engine's workers, pinned when pin is set, and parks
// them on the gate; j runs their share of every job. The session sets
// workers and binds its graph first.
func (e *engine) start(pin bool, j sessionJobs) {
	e.jobs = j
	e.bar, e.gate = newBarrier(e.workers), newBarrier(e.workers+1)
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go e.workerLoop(w, pin)
	}
}

// workerLoop is one persistent pool worker: pinned once for the
// session's lifetime when pin is set, then parked on the gate between
// jobs.
func (e *engine) workerLoop(w int, pin bool) {
	// Registered first so it runs last: the deferred unpin below must
	// have restored the OS thread before Close's join returns.
	defer e.wg.Done()
	if pin {
		if unpin, err := affinity.PinToCPU(w); err == nil {
			defer unpin()
		}
	}
	for {
		e.gate.wait()
		if e.closed {
			return
		}
		switch e.job {
		case jobSearch:
			e.jobs.levelWorker(w)
		case jobClear:
			e.jobs.clearShard(w)
		}
		e.gate.wait()
	}
}

// runJob hands the prepared job to the pool and blocks until every
// worker has finished it.
func (e *engine) runJob(kind jobKind) {
	e.job = kind
	e.gate.wait()
	e.gate.wait()
}

// fullClear is the full-clear fallback of a session's O(touched) reset.
// When the previous search touched at least a quarter of the vertices,
// the walk's random stores would dirty most of the arrays anyway, so
// fullClear clears them whole, sharded across the pool when it has more
// than one worker, and reports true. Otherwise it reports false and the
// session walks its touched list.
func (e *engine) fullClear(touched int) bool {
	switch {
	case touched < e.n/4:
		return false
	case e.workers > 1:
		e.runJob(jobClear)
	default:
		e.jobs.clearShard(0)
	}
	return true
}

// wordShard is worker w's share of the uniform split of [0, n) into
// 64-vertex words: the vertex range [lo, hi), which starts on a word
// boundary and ends on one or at n. Word alignment keeps two workers'
// bitmap stores off the same word.
func (e *engine) wordShard(w int) (lo, hi int) {
	words := (e.n + 63) / 64
	lo = words * w / e.workers * 64
	hi = words * (w + 1) / e.workers * 64
	return lo, min(hi, e.n)
}

// Close shuts down the worker pool and joins it: when Close returns,
// every pool worker has finished and run its deferred unpin (under
// PinThreads, restoring its OS thread's affinity), so a successor
// session's workers cannot race the unpinning. The goroutines may still
// be exiting. Results returned earlier remain readable; further searches
// fail. Close is idempotent but must not run concurrently with a search.
func (e *engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.gate.wait() // release the pool; workers observe closed and exit
	e.wg.Wait()   // join: unpin deferreds have run when this returns
	return nil
}

// Closed reports whether Close has completed on this session. It is
// meant for owners verifying teardown (e.g. a serving pool draining a
// retired snapshot or rebinding its batch runners), not for
// synchronizing with a concurrent Close.
func (e *engine) Closed() bool { return e.closed }
