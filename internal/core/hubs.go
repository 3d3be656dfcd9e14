package core

import (
	"sync/atomic"

	"mcbfs/internal/graph"
)

// Degree-aware scheduling support: hub splitting.
//
// With edge-budgeted chunks (queue.PopChunkEdges) a frontier vertex
// whose degree exceeds the budget comes back as a single-vertex chunk —
// the queue cannot subdivide a vertex. The hubBoard can: the popping
// worker posts the hub's full adjacency range on the board instead of
// scanning it, and every worker (including the poster) claims bounded
// edge sub-ranges off the board with a CAS on the task's cursor. Parent
// claims in the top-down tiers already tolerate concurrent writers, so
// two workers expanding disjoint edge ranges of one hub need no further
// coordination.
//
// The board is a fixed array sized at session construction to the exact
// number of vertices whose degree exceeds the budget — each such vertex
// enters the frontier at most once per search, so the board can never
// overflow. Posts publish the task by storing its end cursor last: a
// scanner that observes end == 0 skips the slot as not-yet-ready (a hub
// range always has end > 0), and the posting worker itself drains the
// board before reaching the level barrier, so a skipped slot costs
// balance, never correctness.
type hubBoard struct {
	n     atomic.Int64 // posts this level
	_     [56]byte
	tasks []hubTask
}

// hubTask is one posted hub: vertex v with unclaimed adjacency range
// [cur, end) in CSR target-index space. Padded to a cache line so
// concurrent cursor CASes on adjacent tasks never collide.
type hubTask struct {
	v   uint32
	_   uint32
	cur atomic.Int64
	end atomic.Int64
	_   [40]byte
}

// newHubBoard sizes a board for g under the given budget. The O(n)
// degree scan runs once per session; a tiny budget (as tests pass)
// makes many vertices "hubs" and costs one cache line each.
func newHubBoard(g *graph.Graph, budget int64) *hubBoard {
	offs := g.Offsets()
	count := 0
	for v := 0; v+1 < len(offs); v++ {
		if offs[v+1]-offs[v] > budget {
			count++
		}
	}
	return &hubBoard{tasks: make([]hubTask, count)}
}

// post publishes hub v's adjacency range [lo, hi) for cooperative
// expansion. The caller must be the worker that popped v off the
// frontier (so each hub is posted once), and must drain the board
// before its next level barrier.
func (b *hubBoard) post(v uint32, lo, hi int64) {
	i := b.n.Add(1) - 1
	t := &b.tasks[i]
	t.v = v
	t.cur.Store(lo)
	t.end.Store(hi) // publish last: end > 0 marks the slot ready
}

// claim carves up to budget edges off any posted task, returning the
// hub and the claimed target-index range. ok is false when no posted
// task has unclaimed edges (not-yet-ready posts may be skipped; see the
// type comment for why that is safe).
func (b *hubBoard) claim(budget int64) (v uint32, lo, hi int64, ok bool) {
	n := int(b.n.Load())
	for i := 0; i < n; i++ {
		t := &b.tasks[i]
		end := t.end.Load()
		if end == 0 {
			continue
		}
		for {
			c := t.cur.Load()
			if c >= end {
				break
			}
			nc := c + budget
			if nc > end {
				nc = end
			}
			if t.cur.CompareAndSwap(c, nc) {
				return t.v, c, nc, true
			}
		}
	}
	return 0, 0, 0, false
}

// reset clears the board between levels (and in the session reset path,
// where a cancelled search may have left half-claimed tasks). Only the
// end cursors of used slots are touched, so the cost is O(posts), not
// O(capacity). Must run while workers are parked — the level barrier or
// the session's serial section provides that exclusion.
func (b *hubBoard) reset() {
	n := int(b.n.Load())
	for i := 0; i < n; i++ {
		b.tasks[i].end.Store(0)
	}
	b.n.Store(0)
}
