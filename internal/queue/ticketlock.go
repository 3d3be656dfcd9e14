// Package queue provides the synchronization and communication
// primitives underneath the multi-socket BFS:
//
//   - TicketLock: the fair spinlock of Sridharan et al. (SPAA'07) the
//     paper uses to guard channel endpoints;
//   - SPSC: a FastForward-style single-producer/single-consumer
//     lock-free ring (Giacomoni et al., PPoPP'08), extended with linked
//     segments so a level's worth of remote vertices never deadlocks a
//     fixed-capacity ring;
//   - Channel: the paper's inter-socket communication channel — an SPSC
//     queue whose producer and consumer ends are each guarded by a
//     TicketLock, with batched insert/remove to amortize locking (the
//     paper reports ~30 ns per vertex inserted, all costs included);
//   - ChunkQueue: the shared current/next vertex queue (CQ/NQ) with
//     atomic cursor claiming, the Go realization of the paper's
//     LockedDequeue/LockedEnqueue. Its producers either own the queue
//     (plain-store appends, the tail published once per batch) or
//     batch (one fetch-and-add per batch of claims).
package queue

import (
	"runtime"
	"sync/atomic"
)

// cacheLine is the coherence granularity the paddings below target.
const cacheLine = 64

type pad [cacheLine]byte

// TicketLock is a fair FIFO spinlock. Acquirers take a ticket with one
// atomic fetch-and-add and spin until the serving counter reaches it, so
// waiters are served in arrival order and the lock word never bounces
// between more than two caches per handoff.
//
// The zero value is an unlocked TicketLock. It must not be copied after
// first use.
type TicketLock struct {
	next atomic.Uint64
	_    pad
	serv atomic.Uint64
	_    pad
}

// Lock acquires the lock, spinning with cooperative yields. On a
// machine with fewer cores than spinners the yield keeps forward
// progress (important under GOMAXPROCS=1, where a pure spin would
// live-lock the holder out of the scheduler).
func (l *TicketLock) Lock() {
	ticket := l.next.Add(1) - 1
	for spins := 0; l.serv.Load() != ticket; spins++ {
		if spins >= 16 {
			runtime.Gosched()
		}
	}
}

// Unlock releases the lock. It must only be called by the current
// holder; the ticket discipline makes a double-unlock corrupt fairness
// rather than panic, so callers must be exact.
func (l *TicketLock) Unlock() {
	l.serv.Add(1)
}
