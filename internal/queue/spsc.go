package queue

import "sync/atomic"

// segBits fixes the FastForward ring segment at 2^segBits slots; 4096
// slots × 8 bytes = 32 KB, small enough to live in L1/L2 while a level
// is streaming through it.
const segBits = 12

const segSize = 1 << segBits

// segment is one FastForward ring. Slot state doubles as the
// synchronization protocol: a zero slot is empty, a non-zero slot holds
// an encoded value. Producer and consumer therefore make independent
// progress without sharing head/tail indices — the property the paper
// exploits to keep coherence traffic off the critical path.
type segment struct {
	slots [segSize]atomic.Uint64
	next  atomic.Pointer[segment]
}

// SPSC is an unbounded single-producer/single-consumer queue of uint64
// values in [0, 2^63): one goroutine may call Enqueue and one goroutine
// may call Dequeue concurrently. The core is the FastForward protocol;
// when a segment fills, the producer links a fresh one, so a BFS level
// can never deadlock on a full ring (a fixed ring would: in the paper's
// two-phase schedule nothing drains the channel until the level's
// barrier).
type SPSC struct {
	// Producer-private state, padded away from the consumer's.
	ptail uint64
	pseg  *segment
	_     pad
	// Consumer-private state.
	chead uint64
	cseg  *segment
	_     pad
	// free is a stack of drained segments awaiting reuse, linked through
	// their next pointers. The consumer pushes, the producer pops, so a
	// long-lived queue reaches a steady state where levels of traffic
	// recirculate the same segments instead of allocating — the property
	// the amortized search session relies on for zero-alloc warm runs.
	// The single-popper discipline makes the CAS loop ABA-free: nodes in
	// the stack are never re-pushed while present, so the head can only
	// return to an observed value via that same observer's pop.
	free atomic.Pointer[segment]
	// Producer-private pool growth: owned counts the segments the queue
	// has ever allocated and spare holds the unused rest of the last
	// block (see getSegment).
	owned int
	spare []segment
}

// NewSPSC returns an empty queue.
func NewSPSC() *SPSC {
	s := &segment{}
	return &SPSC{pseg: s, cseg: s, owned: 1}
}

// maxValue is the largest value Enqueue accepts. Values are stored
// +1 so the zero word can mean "empty"; the top bit is kept clear so the
// encoding never wraps.
const maxValue = 1<<63 - 2

// Enqueue appends v to the queue. It never blocks: if the current
// segment is full it links a new one. It must be called by at most one
// goroutine at a time. v must be <= maxValue; values outside the range
// panic, because silently truncating a vertex id would corrupt the BFS.
func (q *SPSC) Enqueue(v uint64) {
	if v > maxValue {
		panic("queue: SPSC value out of range")
	}
	idx := q.ptail & (segSize - 1)
	slot := &q.pseg.slots[idx]
	if slot.Load() != 0 {
		// Ring is full at this position: the consumer is at least a full
		// segment behind. Link a recycled (or fresh) segment and continue
		// there.
		ns := q.getSegment()
		q.pseg.next.Store(ns)
		q.pseg = ns
		q.ptail = 0
		slot = &ns.slots[0]
	}
	slot.Store(v + 1)
	q.ptail++
}

// Dequeue removes and returns the oldest value. ok is false if the
// queue appeared empty. It must be called by at most one goroutine at a
// time.
//
// Segment-advance invariant: the producer abandons a segment only when
// it wraps onto a still-unconsumed slot, i.e. when exactly one segment's
// worth of items is outstanding. The consumer therefore sees a zero slot
// in a segment with a non-nil next pointer only after it has drained
// every item the producer wrote there, so advancing is always safe.
func (q *SPSC) Dequeue() (v uint64, ok bool) {
	idx := q.chead & (segSize - 1)
	slot := &q.cseg.slots[idx]
	x := slot.Load()
	if x == 0 {
		next := q.cseg.next.Load()
		if next == nil {
			return 0, false
		}
		// Re-check the slot after observing the link. Between the first
		// load and the next.Load the producer may have filled the entire
		// ring (making our slot non-empty again) and then abandoned it;
		// advancing on the stale zero would skip a full segment. The
		// producer's old-segment writes all precede its next.Store, so
		// once next is visible a zero slot genuinely means drained.
		x = slot.Load()
		if x == 0 {
			// The abandoned segment is fully drained (every written slot
			// was zeroed by a dequeue) and no longer referenced by the
			// producer, so it goes to the free stack for reuse.
			old := q.cseg
			q.cseg = next
			q.chead = 0
			q.putSegment(old)
			slot = &q.cseg.slots[0]
			x = slot.Load()
			if x == 0 {
				return 0, false
			}
		}
	}
	slot.Store(0)
	q.chead++
	return x - 1, true
}

// getSegment pops a drained segment off the free stack. When the stack
// is empty it takes one from the spare block, and when that is used up
// it grows the pool geometrically: one allocation adds as many segments
// as the queue already owns. How far ahead of the consumer the producer
// runs can differ from one burst to the next — in a BFS level, with how
// the workers interleave — and growing one segment at a time would
// allocate at each new high-water mark. Doubling allocates O(log peak)
// times over the queue's life, and not at all once a burst fits.
// Producer-side only; spare segments never enter the free stack until
// the consumer drains them, so the stack keeps its single popper.
func (q *SPSC) getSegment() *segment {
	for {
		s := q.free.Load()
		if s == nil {
			break
		}
		if q.free.CompareAndSwap(s, s.next.Load()) {
			s.next.Store(nil)
			return s
		}
	}
	if len(q.spare) == 0 {
		q.spare = make([]segment, q.owned)
		q.owned *= 2
	}
	s := &q.spare[0]
	q.spare = q.spare[1:]
	return s
}

// putSegment pushes a drained segment onto the free stack. Consumer-side
// only; the segment must be fully drained (all slots zero) and
// unreachable from the live chain.
func (q *SPSC) putSegment(s *segment) {
	for {
		head := q.free.Load()
		s.next.Store(head)
		if q.free.CompareAndSwap(head, s) {
			return
		}
	}
}
