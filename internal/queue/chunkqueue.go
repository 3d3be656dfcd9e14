package queue

import (
	"fmt"
	"sync/atomic"
)

// ChunkQueue is the shared vertex queue of the BFS (the paper's CQ and
// NQ). It is a fixed-capacity array of vertex ids with two atomic
// cursors:
//
//   - consumers claim read chunks with one compare-and-swap on the head
//     (the paper's LockedDequeue, batched, and cut by an adjacency
//     budget: PopChunkEdges);
//   - every producer either owns the queue or batches. Concurrent
//     producers claim write ranges with one fetch-and-add on the tail
//     per batch (PushBatch: the paper's LockedEnqueue, batched). A
//     queue's only producer appends with plain stores past the
//     published tail, keeps the tail in a local, and publishes it
//     (Append, Publish): no lock-prefixed instruction per element.
//
// Within a BFS level the queue is append-only and consume-only, and the
// level barrier orders all of one level's writes before the next level's
// reads, which is exactly the paper's usage. A chunk claimed by a
// consumer belongs to it exclusively, so element accesses need no
// further synchronization on x86-like or Go-memory-model machines
// (the atomic cursor operations publish the writes).
type ChunkQueue struct {
	buf  []uint32
	head atomic.Int64
	_    pad
	tail atomic.Int64
	_    pad
}

// NewChunkQueue returns a queue that can hold up to capacity vertices.
func NewChunkQueue(capacity int) *ChunkQueue {
	return &ChunkQueue{buf: make([]uint32, capacity)}
}

// PushBatch appends vals, claiming the destination range with a single
// atomic add, so any number of producers may batch into the queue at
// once. It panics if the queue would overflow — in the BFS the
// capacity is the vertex count and each vertex is enqueued at most once,
// so overflow indicates a correctness bug, not a recoverable condition.
func (q *ChunkQueue) PushBatch(vals []uint32) {
	if len(vals) == 0 {
		return
	}
	end := q.tail.Add(int64(len(vals)))
	if end > int64(len(q.buf)) {
		panic(q.overflow(len(vals), end-int64(len(vals))))
	}
	copy(q.buf[end-int64(len(vals)):end], vals)
}

// Append is the single-producer path: it stores v at index tail with a
// plain store and returns tail+1. The queue's only writer starts from
// the published tail (Size), carries the returned tail in a local and
// hands it to Publish; until then the appended elements are invisible
// to Size, Len, Slice, Window and the pops. No atomic runs per element:
// a fetch-and-add would cost a lock-prefixed instruction, and
// publishing every element an XCHG (Publish is an atomic store).
// Append must not race with PushBatch or another producer. It panics
// on overflow, as PushBatch does.
func (q *ChunkQueue) Append(tail int64, v uint32) int64 {
	if tail >= int64(len(q.buf)) {
		panic(q.overflow(1, tail))
	}
	q.buf[tail] = v
	return tail + 1
}

// Publish makes the elements Appended below tail visible: it is the
// single producer's one atomic store per batch of appends (per BFS
// level, and on every exit from a search).
func (q *ChunkQueue) Publish(tail int64) {
	q.tail.Store(tail)
}

// overflow is the panic message of an overflowing push. It carries the
// cursor state, so an invariant violation in a CI log is diagnosable
// without a reproducer. It stays out of line so that Append inlines.
//
//go:noinline
func (q *ChunkQueue) overflow(n int, tail int64) string {
	return fmt.Sprintf("queue: ChunkQueue overflow pushing %d: head=%d tail=%d cap=%d",
		n, q.head.Load(), tail, len(q.buf))
}

// PopChunkEdges claims up to max elements whose index is below limit
// and the published tail, and returns them as a subslice of the queue's
// buffer (valid until Reset), exclusively owned by the caller. It is
// the primitive behind the monotone-queue BFS: one queue holds every
// level of a search, producers append the next level past limit while
// consumers pop the current level [head, limit), and the level barrier
// advances limit. The chunk is also bounded by an adjacency budget: it
// is cut as soon as the claimed vertices' summed out-degrees (read from
// the CSR offsets array) reach budget. It always claims at least one
// vertex when the window is non-empty, so a vertex whose degree alone
// exceeds the budget comes back as a single-element chunk — the
// caller's cue to split its edge range across workers. It returns nil
// once the window is exhausted, and when max <= 0. Degrees are summed
// before the CAS, so a lost race rescans from the new head; the head is
// monotone within a level, making the loop ABA-free.
func (q *ChunkQueue) PopChunkEdges(max int, budget, limit int64, offsets []int64) []uint32 {
	if max <= 0 {
		return nil
	}
	limit = min(limit, q.tail.Load())
	for {
		h := q.head.Load()
		if h >= limit {
			return nil
		}
		hi := h + int64(max)
		if hi > limit {
			hi = limit
		}
		end := h + 1
		sum := offsets[q.buf[h]+1] - offsets[q.buf[h]]
		for end < hi && sum < budget {
			v := q.buf[end]
			d := offsets[v+1] - offsets[v]
			if sum+d > budget {
				break
			}
			sum += d
			end++
		}
		if q.head.CompareAndSwap(h, end) {
			return q.buf[h:end]
		}
	}
}

// Head returns the consume cursor: the number of elements popped (or
// skipped) since the last Reset. Together with a level limit it tells a
// would-be thief how much of a sibling queue's window remains.
func (q *ChunkQueue) Head() int64 { return q.head.Load() }

// SkipTo positions the consume cursor at index h, abandoning anything
// before it. The direction-optimizing BFS uses it after bottom-up
// levels, which read the frontier by Window rather than by popping. It
// must not race with a pop; the level barrier provides exclusion.
func (q *ChunkQueue) SkipTo(h int64) {
	q.head.Store(h)
}

// Window returns the pushed contents [lo, hi). Like Slice it aliases
// the queue's buffer; it is the per-level view of a monotone queue. It
// panics if hi lies past the published tail.
func (q *ChunkQueue) Window(lo, hi int64) []uint32 {
	return q.buf[lo:hi:q.tail.Load()]
}

// Len returns the number of unconsumed elements.
func (q *ChunkQueue) Len() int {
	n := q.tail.Load() - q.head.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Size returns the total number of elements pushed since the last Reset.
func (q *ChunkQueue) Size() int { return int(q.tail.Load()) }

// Cap returns the queue capacity.
func (q *ChunkQueue) Cap() int { return len(q.buf) }

// Reset empties the queue for reuse in the next BFS level. It must not
// race with a push or a pop; the level barrier provides that exclusion.
func (q *ChunkQueue) Reset() {
	q.head.Store(0)
	q.tail.Store(0)
}

// Slice returns the pushed contents [0, Size()). It is meant for the
// level swap: after a barrier, the next-queue's contents become the
// current level's work without copying.
func (q *ChunkQueue) Slice() []uint32 {
	return q.buf[:q.tail.Load()]
}
