package core

import (
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// sequentialSearch is the serial baseline: a textbook level-synchronous
// BFS, run inline on the caller's goroutine over the session's monotone
// queue (levels are windows of one append-only queue, so the queue's
// final contents double as the touched list the next reset walks). It
// shares the Result bookkeeping (levels, m_a, optional per-level stats)
// with the parallel tiers so that speedup numbers compare identical
// work, and feeds the same observability layer (one worker, local-scan
// phase only).
//
// The search is its queue's only producer, so a discovery is two plain
// stores, its parent entry and its queue slot (queue.Append): no call,
// no lock-prefixed instruction and no XCHG. The tail is published once
// per level, and the deferred publish covers every other exit — a
// cancellation return, or a panic unwinding from the context's Err —
// so the queue always holds exactly the vertices whose parents the
// search wrote. The root is on the queue too, so the published tail is
// the reached count.
func (s *Searcher) sequentialSearch() (edges, reached int64) {
	g, q, parents := s.g, s.qs[0], s.parents
	wr := s.coll.Worker(0)
	observe := wr != nil

	// The root is already published, seeded by SearchContext before its
	// parent entry was written so an abort cannot strand it. The
	// deferred publish reads tail, which therefore lives in memory; each
	// adjacency scan carries its own copy t in a register and writes it
	// back before the next context poll. Nothing in the scan can panic
	// on a valid graph, so every exit sees the exact tail.
	tail := int64(q.Size())
	defer func() { q.Publish(tail) }()
	checkpoints := 0
	prev, limit := int64(0), tail
	for limit > prev && (s.maxLevels == 0 || s.levels < s.maxLevels) {
		var st obs.Counters
		tp := wr.PhaseStart()
		for _, u := range q.Window(prev, limit) {
			if s.aborted(&checkpoints) {
				return edges, tail
			}
			nbrs := g.Neighbors(graph.Vertex(u))
			edges += int64(len(nbrs))
			t := tail
			for _, v := range nbrs {
				if parents[v] == NoParent {
					parents[v] = u
					t = q.Append(t, v)
				}
			}
			if observe {
				st.Frontier++
				st.Edges += int64(len(nbrs))
				st.BitmapReads += int64(len(nbrs))
				st.AtomicOps += t - tail // the claims a parallel run would make atomic
			}
			tail = t
		}
		wr.PhaseEnd(obs.PhaseLocalScan, tp)
		q.Publish(tail)
		s.levels++
		prev, limit = limit, tail
		// Level boundary: same cancellation point as the parallel
		// tiers' coordinator, so levels too small to trip a vertex
		// checkpoint still observe the context once per level. Like
		// that coordinator, fold the level before unwinding, so a
		// cancelled search has one record per counted level.
		cancelled := s.checkCancelAtBarrier()
		wr.AddCounters(st)
		s.coll.EndLevel()
		wr.NextLevel()
		if cancelled {
			return edges, tail
		}
	}
	return edges, tail
}
