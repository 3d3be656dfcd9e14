package core

import (
	"sync/atomic"

	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// Direction-optimizing BFS: an extension beyond the paper (the idea was
// published by Beamer et al. two years later and became the Graph500
// standard), included here as the natural "future work" of the paper's
// design. On power-law graphs the middle BFS levels contain most of the
// graph; exploring them top-down scans almost every edge even though
// almost every target is already visited. The bottom-up pass inverts
// the roles: each *unvisited* vertex scans its in-neighbours for a
// frontier member and claims itself on the first hit — with two
// consequences the paper's cost model immediately appreciates:
//
//   - early exit: a vertex stops scanning at its first frontier parent,
//     skipping the bulk of its in-edges in the dense levels;
//   - no atomics at all: each vertex is examined by exactly one worker
//     (vertices are range-partitioned), so the claim is a plain write —
//     the logical conclusion of the paper's Fig. 3/4 war on
//     lock-prefixed operations.
//
// The switch heuristic follows Beamer's alpha/beta rule on frontier
// size (bottomUpNext). Because bottom-up scans in-edges with early
// exit, the EdgesTraversed of a hybrid run counts the edges actually
// examined, which is typically far below the m_a of a top-down run —
// that gap IS the optimization.

// The alpha/beta thresholds: switch to bottom-up when the frontier
// exceeds n/hybridAlpha vertices, back below n/hybridBeta.
const (
	hybridAlpha = 14
	hybridBeta  = 24
)

// Direction overrides the direction rule of every level in the process
// that could run bottom up: the alpha/beta rule of the
// direction-optimizing tier and the batchAlpha rule of MS-BFS. It is a
// test hook: the equivalence tests run the same searches with each
// setting against one reference. Nothing outside tests changes it, and
// the public API does not expose it.
type Direction int32

const (
	// DirectionAuto applies each tier's own rule.
	DirectionAuto Direction = iota
	// DirectionTopDown runs every level top down.
	DirectionTopDown
	// DirectionBottomUp runs every direction-optimizing level after the
	// root's bottom up, and every MS-BFS level on a symmetric graph;
	// batches on other graphs stay top down.
	DirectionBottomUp
)

var direction atomic.Int32

// SetDirection installs d process-wide and returns the setting it
// replaced. Tests only; see Direction.
func SetDirection(d Direction) Direction {
	return Direction(direction.Swap(int32(d)))
}

// bottomUpNext is the direction-optimizing tier's alpha/beta rule: from
// the size of the next frontier, it picks whether the next level runs
// bottom up. The level coordinator calls it.
func (s *Searcher) bottomUpNext(next int64) bool {
	switch Direction(direction.Load()) {
	case DirectionTopDown:
		return false
	case DirectionBottomUp:
		return true
	}
	if s.bottomUp.Load() {
		return next >= int64(s.n/hybridBeta)
	}
	return next > int64(s.n/hybridAlpha)
}

// bottomUpLevel runs worker w's share of one bottom-up level of the
// direction-optimizing tier. The current frontier is the queue window
// [prevLimit, limit), read by Window without popping; the coordinator
// realigns the consume cursor at the level transition.
func (s *Searcher) bottomUpLevel(w int, ws *searchWorker) {
	wr := ws.wr
	workers := s.workers

	// Range partition of the sweep: worker w owns the engine's uniform
	// word split [lo, hi), so each unvisited vertex is examined by
	// exactly one worker and claims itself with plain writes, and no two
	// workers' visited/parent updates share a 64-vertex word. The split
	// is by vertex count, not in-edge mass: the sweep's work follows the
	// unvisited vertices and their early-exit scans (DESIGN.md §15).
	lo, hi := s.wordShard(w)

	// Build the frontier bitmap from an index partition of the current
	// window: worker w sets the bits of its chunk, O(frontier/P) rather
	// than every worker filter-scanning the whole frontier
	// (O(frontier*P) total). Chunks hold arbitrary vertices, so bits are
	// set with the atomic bitmap's word-OR.
	tp := wr.PhaseStart()
	frontierVerts := s.q.Window(s.prevLimit, s.limit)
	flo := len(frontierVerts) * w / workers
	fhi := len(frontierVerts) * (w + 1) / workers
	for _, v := range frontierVerts[flo:fhi] {
		s.frontier.Set(int(v))
	}
	wr.PhaseEnd(obs.PhaseFrontierBuild, tp)
	tp = wr.PhaseStart()
	s.bar.wait()
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// Bottom-up sweep over this worker's unvisited range. The
	// cancellation checkpoint sits off the per-vertex path (the sweep's
	// selling point is no atomics); an abort skips the rest of the range
	// but still runs the flush, barrier and frontier-clear passes below,
	// so no stale frontier bit or unqueued claim survives into the next
	// search.
	tp = wr.PhaseStart()
	visited, frontier, parents := s.visited, s.frontier, s.parents
	var reads, edges int64
	for v := lo; v < hi; v++ {
		if v&4095 == 0 && s.aborted(&ws.checkpoints) {
			break
		}
		if visited.Get(v) {
			continue
		}
		reads++
		for _, u := range s.gt.Neighbors(graph.Vertex(v)) {
			edges++
			if frontier.Get(int(u)) {
				// Sole owner of v, and of its visited word: the parent
				// store and the batched push are plain, the visited bit
				// is set with the bitmap's compare-and-swap Set. An
				// owner-only plain store measured no faster.
				visited.Set(v)
				parents[v] = uint32(u)
				ws.push(uint32(v))
				break
			}
		}
	}
	ws.st.BitmapReads += reads
	ws.st.Edges += edges
	ws.flush()
	wr.PhaseEnd(obs.PhaseBottomUpScan, tp)

	// Everyone must finish sweeping before anyone clears: a cleared bit
	// would hide a frontier parent from a worker still scanning,
	// deferring the discovery one level and corrupting BFS depths.
	tp = wr.PhaseStart()
	s.bar.wait()
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// Clear this chunk's frontier bits for the next level — the same
	// index partition and atomic word ops as the build pass.
	tp = wr.PhaseStart()
	for _, v := range frontierVerts[flo:fhi] {
		s.frontier.Clear(int(v))
	}
	wr.PhaseEnd(obs.PhaseFrontierBuild, tp)
}
