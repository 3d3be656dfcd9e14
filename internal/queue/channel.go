package queue

import "sync/atomic"

// Tuple is the payload of the inter-socket channel: a discovered vertex
// and the vertex that discovered it (its BFS parent candidate). The pair
// packs into one uint64 ring slot because vertex ids are < 2^31.
type Tuple struct {
	V, Parent uint32
}

func packTuple(t Tuple) uint64 {
	return uint64(t.V)<<32 | uint64(t.Parent)
}

func unpackTuple(x uint64) Tuple {
	return Tuple{V: uint32(x >> 32), Parent: uint32(x)}
}

// Channel is the paper's inter-socket communication channel: a
// FastForward SPSC queue whose producer end and consumer end are each
// guarded by a Ticket Lock, so any thread of the sending socket can
// enqueue and any thread of the receiving socket can dequeue. All
// operations are batched — the paper found per-vertex locking too
// expensive and reports ~30 ns per inserted vertex once batching
// amortizes the lock handoff.
//
// The underlying queue is unbounded (segmented), so a producer can push
// an entire BFS level before the consumer drains any of it; in the
// two-phase schedule of Algorithm 3 nothing reads the channel until the
// level's synchronization point.
type Channel struct {
	prodLock TicketLock
	consLock TicketLock
	q        *SPSC
	// queued is the channel's occupancy. It changes once per batch,
	// under the lock of the end that moved the tuples, so the queue's
	// ends keep sharing no counter per tuple. A receiver can take
	// tuples before their sender has added them, so it may read below
	// zero for a moment.
	queued atomic.Int64
	// stats is nil unless EnableStats was called; the send path then
	// updates it under the producer lock it already holds, so enabling
	// statistics adds no atomic operations — only one predictable
	// nil-check per batch.
	stats *ChannelStats
}

// ChannelStats are a channel's cumulative flush statistics.
type ChannelStats struct {
	// Batches counts non-empty SendBatch calls; Tuples the tuples they
	// carried.
	Batches int64
	Tuples  int64
	// MaxBatch is the largest single flush; MaxLen the occupancy
	// high-water mark observed after a flush (since the last
	// ResetHighWater).
	MaxBatch int
	MaxLen   int
}

// NewChannel returns an empty channel.
func NewChannel() *Channel {
	return &Channel{q: NewSPSC()}
}

// EnableStats turns on flush accounting. Call it before the channel is
// shared between goroutines.
func (c *Channel) EnableStats() {
	c.stats = &ChannelStats{}
}

// Stats snapshots the cumulative statistics (zero value when stats are
// not enabled). It takes the producer lock, so it is safe to call
// concurrently with senders.
func (c *Channel) Stats() ChannelStats {
	if c.stats == nil {
		return ChannelStats{}
	}
	c.prodLock.Lock()
	s := *c.stats
	c.prodLock.Unlock()
	return s
}

// ResetHighWater clears the occupancy and batch high-water marks (for
// per-level sampling); the cumulative counters are untouched.
func (c *Channel) ResetHighWater() {
	if c.stats == nil {
		return
	}
	c.prodLock.Lock()
	c.stats.MaxLen = 0
	c.stats.MaxBatch = 0
	c.prodLock.Unlock()
}

// SendBatch enqueues every tuple in batch under one producer-lock
// acquisition.
func (c *Channel) SendBatch(batch []Tuple) {
	if len(batch) == 0 {
		return
	}
	c.prodLock.Lock()
	for _, t := range batch {
		c.q.Enqueue(packTuple(t))
	}
	n := c.queued.Add(int64(len(batch)))
	if c.stats != nil {
		c.stats.Batches++
		c.stats.Tuples += int64(len(batch))
		if len(batch) > c.stats.MaxBatch {
			c.stats.MaxBatch = len(batch)
		}
		if int(n) > c.stats.MaxLen {
			c.stats.MaxLen = int(n)
		}
	}
	c.prodLock.Unlock()
}

// Send enqueues a single tuple. Prefer SendBatch in hot paths.
func (c *Channel) Send(t Tuple) {
	c.prodLock.Lock()
	c.q.Enqueue(packTuple(t))
	n := c.queued.Add(1)
	if c.stats != nil {
		c.stats.Batches++
		c.stats.Tuples++
		if c.stats.MaxBatch < 1 {
			c.stats.MaxBatch = 1
		}
		if int(n) > c.stats.MaxLen {
			c.stats.MaxLen = int(n)
		}
	}
	c.prodLock.Unlock()
}

// ReceiveBatch dequeues up to len(buf) tuples into buf under one
// consumer-lock acquisition and returns the number received.
func (c *Channel) ReceiveBatch(buf []Tuple) int {
	if len(buf) == 0 {
		return 0
	}
	c.consLock.Lock()
	n := 0
	for n < len(buf) {
		x, ok := c.q.Dequeue()
		if !ok {
			break
		}
		buf[n] = unpackTuple(x)
		n++
	}
	c.queued.Add(-int64(n))
	c.consLock.Unlock()
	return n
}

// DiscardAll dequeues and drops everything currently in the channel,
// returning the number of tuples discarded. It is the abort path of a
// cancelled multi-socket search: in-flight tuples are unclaimed by
// construction, so dropping them (rather than claiming them into the
// touched set) bounds the unwind without leaking state into the next
// search. Safe to call concurrently with ReceiveBatch — both ends
// drain under the consumer lock.
func (c *Channel) DiscardAll() int {
	c.consLock.Lock()
	n := 0
	for {
		if _, ok := c.q.Dequeue(); !ok {
			break
		}
		n++
	}
	c.queued.Add(-int64(n))
	c.consLock.Unlock()
	return n
}

// Len returns the approximate number of queued tuples: exact when no
// send or receive is in flight.
func (c *Channel) Len() int { return max(0, int(c.queued.Load())) }
