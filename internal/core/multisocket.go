package core

import (
	"time"

	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
)

// The multi-socket tier is the paper's Algorithm 3.
//
// The graph's vertex range, the parent array and the visited bitmap are
// partitioned into contiguous per-socket blocks (Algorithm 3 line 2).
// A socket's threads only ever mutate their own block, so the atomic
// traffic that Figure 3 shows collapsing across socket boundaries stays
// socket-local. A vertex discovered by a thread of another socket is
// not claimed remotely; instead the (vertex, parent) tuple travels
// through that socket's channel — a FastForward queue with TicketLock
// guarded ends — in batches that amortize the locking (lines 26,
// 28-35).
//
// Each level runs in two phases separated by barriers:
//
//	phase 1: the shared top-down scan in claimOwned mode over the
//	         socket's own queue; local discoveries are claimed
//	         immediately, remote ones batched into channels. With the
//	         double check on, every target's visited bit is probed
//	         first, so only remote targets that look unvisited are
//	         sent; Options.DisableDoubleCheck sends every remote
//	         target, as the paper's Algorithm 3 does;
//	phase 2: exchange drains the socket's own channel, claiming the
//	         delivered tuples exactly as local ones.
//
// The probe reads the owner's bitmap block with an atomic load and
// never writes it, so each socket still writes only its own block.
// Bits only go from 0 to 1 within a search: a set bit proves the target
// claimed, and a clear one is re-checked by the owner in claimTuples.
//
// On the logical machine of this reproduction the "sockets" are
// goroutine groups; the data partitioning, channel wiring and two-phase
// schedule are identical to the paper's. Each socket's queue is
// monotone, so the union of the per-socket queues is the reached list
// the session's O(touched) reset walks.

// exchange ends phase 1 — the scan begun at tp — and runs phase 2:
// flush the partial remote batches, wait until every worker's sends are
// complete, then drain this socket's channel and flush the local batch.
func (s *Searcher) exchange(ws *searchWorker, tp time.Time) {
	// Empty batches are skipped: in late levels most destinations have
	// nothing pending, and an empty flush is pure overhead. On abort the
	// batches are dropped rather than sent: their tuples were never
	// claimed anywhere, and phase 2 discards in-flight ones.
	cancelled := s.cancel.Load()
	for sck := range ws.remote {
		if len(ws.remote[sck]) == 0 {
			continue
		}
		if cancelled {
			ws.remote[sck] = ws.remote[sck][:0]
			continue
		}
		ws.send(sck)
	}
	ws.wr.PhaseEnd(obs.PhaseLocalScan, tp)

	tp = ws.wr.PhaseStart()
	s.bar.wait()
	ws.wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// The drain must run even on abort — a tuple left in a channel would
	// be claimed by the *next* search and corrupt its tree — but an
	// aborting worker discards instead of claiming, keeping the unwind
	// bounded by what was already sent. Workers of one socket may mix
	// the two modes during an abort race; both leave the channel empty
	// and every claim on the touched list.
	tp = ws.wr.PhaseStart()
	if s.cancel.Load() {
		s.channels[ws.this].DiscardAll()
	} else {
		for {
			got := s.channels[ws.this].ReceiveBatch(ws.recvBuf)
			if got == 0 {
				break
			}
			ws.claimTuples(ws.recvBuf[:got])
		}
	}
	ws.flush()
	ws.wr.PhaseEnd(obs.PhaseQueueDrain, tp)
}

// sendRemote batches the tuple (v, u) for v's owner, shipping the batch
// when it is full, and counts the send. It is expand's only call per
// sent target and stays out of line: inlined, the append's growslice
// call made the compiler keep expand's loop index, counters and v in
// stack slots.
//
//go:noinline
func (ws *searchWorker) sendRemote(v, u uint32) {
	ws.st.RemoteSends++
	sck := ws.s.part.DetermineSocket(v)
	b := append(ws.remote[sck], queue.Tuple{V: v, Parent: u})
	ws.remote[sck] = b
	if len(b) == cap(b) {
		ws.send(sck)
	}
}

// send ships the worker's batch for socket sck through that socket's
// channel.
func (ws *searchWorker) send(sck int) {
	ws.s.channels[sck].SendBatch(ws.remote[sck])
	ws.wr.RemoteBatch(len(ws.remote[sck]))
	ws.remote[sck] = ws.remote[sck][:0]
}

// claimTuples claims a received batch of (vertex, parent) tuples, all
// owned by this worker's socket, with the bitmap claim expand uses for
// local targets.
func (ws *searchWorker) claimTuples(ts []queue.Tuple) {
	parents, visited := ws.s.parents, ws.s.visited
	check := !ws.s.o.DisableDoubleCheck
	var reads, atomics int64
	for _, t := range ts {
		if check {
			reads++
			if visited.Get(int(t.V)) {
				continue
			}
		}
		atomics++
		if !visited.TestAndSet(int(t.V)) {
			parents[t.V] = t.Parent
			ws.push(t.V)
		}
	}
	ws.st.BitmapReads += reads
	ws.st.AtomicOps += atomics
}

// stealChunk claims one edge-budgeted chunk from the current-level
// window of the sibling socket queue with the most unconsumed work.
// It rescans on a lost race — the head cursors are monotone within a
// level, so every retry sees strictly less remaining work and the loop
// terminates. Returns nil when every sibling window is drained.
//
// Stealing only moves which worker *expands* a frontier vertex; the
// discovered children still go through claim-or-send, so data ownership
// (parents, bitmap, channels) is untouched and phase-2 drains behave
// exactly as without stealing. The limit entries are written by the
// level coordinator and published by the barrier, so reading them here
// is race-free.
func (s *Searcher) stealChunk(this int) []uint32 {
	offs := s.g.Offsets()
	for {
		best, bestRem := -1, int64(0)
		for sck, q := range s.qs {
			if sck == this {
				continue
			}
			if rem := s.limit[sck] - q.Head(); rem > bestRem {
				best, bestRem = sck, rem
			}
		}
		if best < 0 {
			return nil
		}
		if chunk := s.qs[best].PopChunkEdges(s.sched.chunk, s.sched.budget, s.limit[best], offs); chunk != nil {
			return chunk
		}
	}
}

// sampleChannels records each channel's per-level traffic when the
// session traces (its channels count only then). The level coordinator
// calls it between the closing barriers, when no sends are in flight,
// so the deltas are exact.
func (s *Searcher) sampleChannels() {
	if !s.o.Trace {
		return
	}
	for sck, c := range s.channels {
		cs := c.Stats()
		s.coll.AddChannelSample(sck, cs.Tuples-s.prevChan[sck].Tuples,
			cs.Batches-s.prevChan[sck].Batches, cs.MaxLen, cs.MaxBatch)
		s.prevChan[sck] = cs
		c.ResetHighWater()
	}
}
