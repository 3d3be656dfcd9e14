package core

import (
	"sync/atomic"

	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// The paper's Algorithms 1-3 are one level-synchronous loop: pop a
// chunk of the current frontier, scan each vertex's adjacency, claim
// every unvisited target for the next level. They differ only in how a
// discovered vertex is claimed, so the four parallel tiers share one
// top-down scan (scanLevel) and one end-of-level barrier sequence
// (endLevel), and each search fixes a claimMode per worker.
//
// Every tier runs over a monotone queue: workers pop the current
// level's window [head, limit) and append discoveries past it; the
// level coordinator advances the window at the barrier. The queue is
// never reset mid-search, so its final contents are the reached list
// the session's O(touched) reset walks.

// claimMode is how a top-down scan claims a discovered vertex.
type claimMode uint8

const (
	// claimParent is Algorithm 1: a compare-and-swap on the target's
	// parent slot. The random working set is the whole 4-byte-per-vertex
	// parent array and every scanned edge costs a lock-prefixed
	// instruction — exactly what the later tiers fix.
	claimParent claimMode = iota
	// claimChecked is Algorithm 2: visitation moves into a bitmap (1 bit
	// instead of 4 bytes per vertex, paper Fig. 2) and the claim is
	// double-checked — a plain probe first, the atomic read-and-set only
	// when the bit looks clear, so late levels execute almost no locked
	// operations (paper Fig. 4). A racing thread may set the bit between
	// the probe and the atomic, which is why the atomic's result, not
	// the probe, decides the winner. Only the winner writes the parent
	// slot, so that write needs no synchronization; the level barrier
	// publishes it.
	claimChecked
	// claimAtomic is claimChecked without the probe
	// (Options.DisableDoubleCheck), the ablation of paper Fig. 5.
	claimAtomic
	// claimOwned is Algorithm 3: a target owned by the scanning worker's
	// socket is claimed in the bitmap, any other target is sent to its
	// owner's channel and claimed there in the level's second phase.
	// Unless DisableDoubleCheck, every target is probed first, so only
	// targets that look unvisited are claimed or sent.
	claimOwned
)

// localBatch is the number of claimed vertices a worker buffers before
// one batched push to its next-level window.
const localBatch = 64

// levelWorker runs one pool worker through a search of any parallel
// tier. Direction-optimizing searches may run a level bottom-up; every
// other level is the shared top-down scan, followed in the multi-socket
// tier by the channel exchange of Algorithm 3's second phase.
func (s *Searcher) levelWorker(w int) {
	ws := &s.ws[w]
	ws.begin(w)
	for {
		if s.bottomUp.Load() {
			s.bottomUpLevel(w, ws)
		} else {
			tp := ws.wr.PhaseStart()
			ws.scanLevel()
			if ws.mode == claimOwned {
				s.exchange(ws, tp)
			} else {
				ws.flush()
				ws.wr.PhaseEnd(obs.PhaseLocalScan, tp)
			}
		}
		if s.endLevel(ws) {
			return
		}
	}
}

// begin readies worker state for one search: the claim mode follows
// the tier and Options.DisableDoubleCheck, and the worker pops from and
// pushes to its socket's queue in the multi-socket tier, the session's
// shared queue otherwise.
func (ws *searchWorker) begin(w int) {
	s := ws.s
	ws.wr = s.coll.Worker(w)
	ws.q = s.q
	ws.edges, ws.reached, ws.checkpoints = 0, 0, 0
	switch {
	case s.alg == AlgParallelSimple:
		ws.mode = claimParent
	case s.alg == AlgMultiSocket:
		ws.mode = claimOwned
		ws.this = s.o.Machine.SocketOfThread(w, s.workers)
		ws.q = s.qs[ws.this]
		lo, hi := s.part.Range(ws.this)
		ws.lo, ws.size = uint32(lo), uint32(hi-lo)
	case s.o.DisableDoubleCheck:
		ws.mode = claimAtomic
	default:
		ws.mode = claimChecked
	}
}

// chunkMax is the most vertices a top-down chunk holds, and budgetFloor
// the least adjacency budget the session derives, so that near-edgeless
// graphs do not degenerate into one-vertex claims.
const (
	chunkMax    = 128
	budgetFloor = 1024
)

// schedule sizes the frontier scheduler's chunks: a worker claims up to
// chunk vertices whose summed out-degree stays within budget
// (queue.PopChunkEdges), and a vertex whose degree alone exceeds budget
// is split on the hub board. The zero value derives both from the graph
// (resolve); tests pass other values through newSearcher to stress the
// hub board and the claim path.
type schedule struct {
	budget int64
	chunk  int
}

// resolve fills the zero fields of sc: chunk becomes chunkMax and budget
// max(budgetFloor, average degree × chunk), so a chunk of average-degree
// vertices is cut by its vertex count and one that meets a hub by its
// edges.
func (sc schedule) resolve(g *graph.Graph) schedule {
	if sc.chunk <= 0 {
		sc.chunk = chunkMax
	}
	if sc.budget <= 0 {
		avg := int64(1)
		if n := g.NumVertices(); n > 0 {
			avg = max(1, g.NumEdges()/int64(n))
		}
		sc.budget = max(budgetFloor, avg*int64(sc.chunk))
	}
	return sc
}

// scanLevel is the top-down scan of one level, shared by the four
// parallel tiers: claim edge-budgeted chunks of the current window
// (stealing from sibling sockets once the own window drains in the
// multi-socket tier), post over-budget vertices on the hub board and
// expand the rest, and help drain the board.
func (ws *searchWorker) scanLevel() {
	s := ws.s
	offs, tgts := s.g.Offsets(), s.g.Targets()
	budget, hubs := s.sched.budget, s.hubs
	limit := s.limit
	if ws.mode == claimOwned {
		limit = s.sockLimit[ws.this]
	}
	// Cancellation checkpoint: on abort stop expanding and return to the
	// flush and barriers — every claimed vertex is already in local or
	// the queue, so the unwound session's touched list stays complete.
	for !s.aborted(&ws.checkpoints) {
		chunk := ws.q.PopChunkEdges(s.sched.chunk, budget, limit, offs)
		if chunk == nil && ws.mode == claimOwned {
			// Own window drained: steal from the busiest sibling socket
			// instead of idling at the phase barrier.
			if chunk = s.stealChunk(ws.this); chunk != nil {
				ws.st.Steals++
			}
		}
		posted := false
		for _, u := range chunk {
			ws.st.Frontier++
			lo, hi := offs[u], offs[u+1]
			if hubs != nil && hi-lo > budget {
				// Over-budget vertex: publish it for cooperative
				// edge-range expansion instead of scanning it alone.
				hubs.post(u, lo, hi)
				posted = true
				continue
			}
			ws.expand(u, tgts[lo:hi])
		}
		if hubs != nil && (posted || chunk == nil) {
			// Drain the hub board — after posting (the poster guarantee
			// that makes unready-slot skips safe) and when the window
			// runs dry (so everyone helps finish the level's hubs
			// instead of idling at the barrier).
			did := false
			for {
				u, lo, hi, ok := hubs.claim(budget)
				if !ok {
					break
				}
				did = true
				ws.expand(u, tgts[lo:hi])
			}
			if chunk == nil && !did {
				return
			}
		} else if chunk == nil {
			return
		}
	}
}

// expand claims the targets nbrs of frontier vertex u — a whole
// adjacency list or one hub sub-range. The claim mode is switched on
// once per call, so each loop is a straight run of inlined probes and
// atomics: no interface, func value, closure or type-parameter method
// sits on the per-edge path, where each would cost an indirect call.
func (ws *searchWorker) expand(u uint32, nbrs []uint32) {
	s := ws.s
	parents, visited := s.parents, s.visited
	var reads, atomics int64
	switch ws.mode {
	case claimParent:
		atomics = int64(len(nbrs))
		for _, v := range nbrs {
			if atomic.CompareAndSwapUint32(&parents[v], NoParent, u) {
				ws.push(v)
			}
		}
	case claimChecked:
		reads = int64(len(nbrs))
		for _, v := range nbrs {
			if visited.Get(int(v)) {
				continue
			}
			atomics++
			if !visited.TestAndSet(int(v)) {
				parents[v] = u
				ws.push(v)
			}
		}
	case claimAtomic:
		atomics = int64(len(nbrs))
		for _, v := range nbrs {
			if !visited.TestAndSet(int(v)) {
				parents[v] = u
				ws.push(v)
			}
		}
	case claimOwned:
		// v-lo >= size (unsigned) is "v lies outside this socket's
		// block": the ownership test is one subtraction and compare, and
		// the division that names the owner runs in sendRemote, only for
		// targets that are actually sent.
		lo, size := ws.lo, ws.size
		if s.o.DisableDoubleCheck {
			// Paper-literal Algorithm 3: every remote target is sent. A
			// loop of its own keeps a per-edge mode test out of the
			// probed loop below, which ran ~10% faster that way on R-MAT
			// scale 18 (2 workers on 2 sockets).
			for _, v := range nbrs {
				if v-lo >= size {
					ws.sendRemote(v, u)
					continue
				}
				atomics++
				if !visited.TestAndSet(int(v)) {
					parents[v] = u
					ws.push(v)
				}
			}
			break
		}
		// Double check: probe every target first, local or remote. A set
		// bit proves the target claimed (bits only go from 0 to 1 within
		// a search), so it is neither claimed nor sent. The claim stores
		// through s.parents, not the parents local: with the local's
		// pointer and length held in registers across this loop, the
		// compiler ran out of them and spilled and reloaded v on every
		// edge (go tool objdump of expand).
		reads = int64(len(nbrs))
		for _, v := range nbrs {
			if visited.Get(int(v)) {
				continue
			}
			if v-lo >= size {
				ws.sendRemote(v, u)
				continue
			}
			atomics++
			if !visited.TestAndSet(int(v)) {
				s.parents[v] = u
				ws.push(v)
			}
		}
	}
	ws.st.Edges += int64(len(nbrs))
	ws.st.BitmapReads += reads
	ws.st.AtomicOps += atomics
}

// push appends a vertex this worker claimed to its local batch,
// flushing the batch into the next-level window when full.
func (ws *searchWorker) push(v uint32) {
	ws.reached++
	ws.local = append(ws.local, v)
	if len(ws.local) == cap(ws.local) {
		ws.flush()
	}
}

// flush pushes the local batch into the worker's queue.
func (ws *searchWorker) flush() {
	ws.q.PushBatch(ws.local)
	ws.local = ws.local[:0]
}

// endLevel is the barrier sequence closing every level of every
// parallel tier: deposit the worker's counts, let the coordinator
// elected at the first barrier advance the search, and publish its
// decision with the second, whose coordinator folds the level's record.
// It reports whether the search is over.
func (s *Searcher) endLevel(ws *searchWorker) bool {
	ws.edges += ws.st.Edges
	ws.wr.AddCounters(ws.st)
	ws.st = obs.Counters{}
	tp := ws.wr.PhaseStart()
	if s.bar.wait() {
		s.advanceLevel()
	}
	ws.wr.PhaseEnd(obs.PhaseBarrierWait, tp)
	if s.bar.wait() {
		s.coll.EndLevel(!s.done.Load())
	}
	ws.wr.NextLevel()
	return s.done.Load()
}

// advanceLevel is the level transition of the parallel tiers, run by
// the coordinator elected at the first closing barrier: advance the
// monotone queue windows, decide termination and, in the
// direction-optimizing tier, apply the alpha/beta direction switch.
func (s *Searcher) advanceLevel() {
	// A cancelled search advances and folds normally — the bookkeeping
	// below only ever sets done, so the abort decision stands and the
	// obs layer still sees a coherent final level.
	s.checkCancelAtBarrier()
	if s.hubs != nil {
		s.hubs.reset()
	}
	if s.bottomUp.Load() {
		// Bottom-up levels expand the window without popping it, so the
		// workers' frontier counts miss it.
		s.coll.CreditFrontier(s.limit - s.prevLimit)
	}
	s.levels++
	var next int64 // size of the next frontier
	if s.alg == AlgMultiSocket {
		s.sampleChannels()
		for sck, q := range s.qs {
			sz := int64(q.Size())
			next += sz - s.sockLimit[sck]
			s.sockLimit[sck] = sz
		}
	} else {
		// Bottom-up levels leave the consume cursor behind; realign it
		// so the next top-down level pops only the new window.
		s.q.SkipTo(s.limit)
		s.prevLimit = s.limit
		s.limit = int64(s.q.Size())
		next = s.limit - s.prevLimit
	}
	switch {
	case next == 0 || (s.maxLevels > 0 && s.levels >= s.maxLevels):
		s.done.Store(true)
	case s.alg == AlgDirectionOptimizing:
		s.bottomUp.Store(s.bottomUpNext(next))
	}
}
