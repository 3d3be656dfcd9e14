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
func (s *Searcher) sequentialSearch() (edges, reached int64) {
	g, q := s.g, s.q
	wr := s.coll.Worker(0)
	observe := wr != nil

	// The root is already on the queue, seeded by SearchContext before
	// its parent entry was written so an abort cannot strand it.
	reached = 1
	checkpoints := 0
	prev, limit := int64(0), int64(1)
	for limit > prev && (s.maxLevels == 0 || s.levels < s.maxLevels) {
		var st obs.Counters
		tp := wr.PhaseStart()
		for _, u := range q.Window(prev, limit) {
			// Every claim is pushed before the next checkpoint, so an
			// abort here leaves the queue holding the full touched set.
			if s.aborted(&checkpoints) {
				return edges, reached
			}
			nbrs := g.Neighbors(graph.Vertex(u))
			edges += int64(len(nbrs))
			if observe {
				st.Frontier++
				st.Edges += int64(len(nbrs))
				st.BitmapReads += int64(len(nbrs))
			}
			for _, v := range nbrs {
				if s.parents[v] == NoParent {
					s.parents[v] = u
					q.Push(v)
					reached++
					if observe {
						st.AtomicOps++ // the claim a parallel run would make atomic
					}
				}
			}
		}
		wr.PhaseEnd(obs.PhaseLocalScan, tp)
		s.levels++
		prev, limit = limit, int64(q.Size())
		// Level boundary: same cancellation point as the parallel
		// tiers' coordinator, so levels too small to trip a vertex
		// checkpoint still observe the context once per level. Like
		// that coordinator, fold the level before unwinding, so a
		// cancelled search has one record per counted level.
		cancelled := s.checkCancelAtBarrier()
		wr.AddCounters(st)
		s.coll.EndLevel(!cancelled && limit > prev && (s.maxLevels == 0 || s.levels < s.maxLevels))
		wr.NextLevel()
		if cancelled {
			return edges, reached
		}
	}
	return edges, reached
}
