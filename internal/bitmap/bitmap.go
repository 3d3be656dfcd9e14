// Package bitmap provides dense bit vectors used to mark visited vertices
// during graph exploration.
//
// The SC'10 BFS paper's first major optimization is replacing the
// per-vertex parent check with a bitmap probe: 32 million vertices of
// visit state fit in 4 MB, which keeps the random-access working set
// inside the last-level cache and raises the probe rate by ~4x (paper
// Fig. 2). Two variants are provided:
//
//   - Bitmap: a plain, single-goroutine bit vector.
//   - Atomic: a concurrent bit vector whose TestAndSet is the Go
//     equivalent of the paper's __sync_or_and_fetch "LockedReadSet".
//
// Atomic additionally exposes Get, the cheap non-atomic probe that
// enables the paper's double-checked pattern (plain read first, atomic
// read-and-set only when the bit looks unset).
//
// The clears (Atomic.Reset, ResetWords and ClearWordOf; Lanes.Clear and
// ResetWords) and Lanes.Store are plain stores, not locked ones: they
// must not race with any other access to the words they write. The
// caller's barrier orders them against the concurrent phases before and
// after.
package bitmap

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const wordBits = 64

func wordsFor(n int) int {
	return (n + wordBits - 1) / wordBits
}

// Bitmap is a fixed-size bit vector. It is not safe for concurrent use;
// see Atomic for the concurrent variant.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a Bitmap with n bits, all zero. It panics if n < 0.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bitmap{words: make([]uint64, wordsFor(n)), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// TestAndSet sets bit i and reports whether it was previously set.
func (b *Bitmap) TestAndSet(i int) bool {
	w := i / wordBits
	mask := uint64(1) << (uint(i) % wordBits)
	old := b.words[w]
	b.words[w] = old | mask
	return old&mask != 0
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Bytes returns the size of the bitmap's backing storage in bytes. The
// paper reasons about working sets in these terms (4 MB for 32 M
// vertices).
func (b *Bitmap) Bytes() int { return len(b.words) * 8 }

// Atomic is a fixed-size bit vector safe for concurrent use. All methods
// except the quiescent clears Reset, ResetWords and ClearWordOf may be
// called from multiple goroutines simultaneously.
type Atomic struct {
	words []atomic.Uint64
	n     int
}

// NewAtomic returns an Atomic bitmap with n bits, all zero. It panics if
// n < 0.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Atomic{words: make([]atomic.Uint64, wordsFor(n)), n: n}
}

// Len returns the number of bits in the bitmap.
func (a *Atomic) Len() int { return a.n }

// Get reports whether bit i is set, using a single atomic load. This is
// the inexpensive probe of the paper's double-checked idiom: it never
// takes a bus lock, so late BFS levels (where almost every neighbour is
// already visited) avoid nearly all locked operations (paper Fig. 4).
func (a *Atomic) Get(i int) bool {
	return a.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet atomically sets bit i and reports whether it was previously
// set. It is the moral equivalent of the paper's LockedReadSet
// (__sync_or_and_fetch on x86, a lock-prefixed OR).
//
// The implementation is a CAS loop rather than atomic.Uint64.Or: the Or
// intrinsic is miscompiled on some toolchains when the word is a slice
// element and the returned value is used, and the loop additionally
// short-circuits without a write when the bit is already set, which is
// the common case in late BFS levels.
func (a *Atomic) TestAndSet(i int) bool {
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|mask) {
			return false
		}
	}
}

// Set atomically sets bit i without reporting the previous value.
func (a *Atomic) Set(i int) {
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// Clear atomically clears bit i. Like Set it short-circuits without a
// write when the bit is already clear.
func (a *Atomic) Clear(i int) {
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask == 0 {
			return
		}
		if w.CompareAndSwap(old, old&^mask) {
			return
		}
	}
}

// Reset clears every bit with plain stores. It must not race with other
// methods; callers reset between BFS runs, not during one.
func (a *Atomic) Reset() {
	clear(a.words)
}

// ClearWordOf zeroes the whole 64-bit word containing bit i. It is the
// O(touched) reset primitive of a pooled search session: walking the
// reached list and zeroing each vertex's word clears every set bit as
// long as set bits only ever belong to reached vertices. Like Reset it
// is a quiescent-only plain store: an atomic store would be a locked,
// fully fenced XCHG per touched vertex.
func (a *Atomic) ClearWordOf(i int) {
	w := i / wordBits
	clear(a.words[w : w+1])
}

// ResetWords zeroes words [lo, hi) — the shard primitive of a parallel
// full clear (each worker resets a disjoint word range). Quiescent-only
// in the same sense as Reset.
func (a *Atomic) ResetWords(lo, hi int) {
	clear(a.words[lo:hi])
}

// Words returns the number of 64-bit words backing the bitmap.
func (a *Atomic) Words() int { return len(a.words) }

// Lanes is a dense vector of 64-bit lane masks, one whole word per
// element — the multi-source generalization of the visited bitmap. Where
// Atomic packs 64 vertices into one word to shrink a single search's
// working set, Lanes packs 64 *searches* into one word per vertex: bit l
// of word v records whether lane l's BFS has seen vertex v, so a batch
// of up to 64 traversals shares one working set and one pass over each
// adjacency list.
//
// Or is the multi-bit analogue of Atomic.TestAndSet: it returns the
// word's previous value, from which the caller derives which lane bits
// it newly claimed. Load is the cheap probe of the paper's
// double-checked idiom lifted to lane masks — probe first, and only when
// some wanted bit looks clear pay the locked OR.
type Lanes struct {
	words []atomic.Uint64
	n     int
}

// NewLanes returns a Lanes vector with n elements, all zero. It panics
// if n < 0.
func NewLanes(n int) *Lanes {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Lanes{words: make([]atomic.Uint64, n), n: n}
}

// Len returns the number of elements.
func (l *Lanes) Len() int { return l.n }

// Load returns element i's lane mask with a single atomic load — the
// inexpensive probe half of the double-checked claim.
func (l *Lanes) Load(i int) uint64 {
	return l.words[i].Load()
}

// Or sets the bits of mask in element i and returns the element's
// previous value. Like Atomic.TestAndSet it is a CAS loop that
// short-circuits without a write when every wanted bit is already set —
// the common case once a batch's lanes converge on the same frontier.
func (l *Lanes) Or(i int, mask uint64) uint64 {
	w := &l.words[i]
	for {
		old := w.Load()
		if old&mask == mask {
			return old
		}
		if w.CompareAndSwap(old, old|mask) {
			return old
		}
	}
}

// Clear zeroes element i with a plain store. It must not race with any
// other access to element i: session resets use it between traversals,
// and a worker may use it during one only on elements no other worker
// touches until the next barrier.
func (l *Lanes) Clear(i int) {
	clear(l.words[i : i+1])
}

// Store overwrites element i with mask using a plain store, under the
// same rule as Clear: no other access to element i may race with it.
// MS-BFS's bottom-up level uses it on the vertices a worker owns, where
// the worker is the only reader and writer of those words until the
// level barrier.
func (l *Lanes) Store(i int, mask uint64) {
	*(*uint64)(unsafe.Pointer(&l.words[i])) = mask
}

// ResetWords zeroes elements [lo, hi) — the shard primitive of a
// parallel full clear. Quiescent-only, like Clear.
func (l *Lanes) ResetWords(lo, hi int) {
	clear(l.words[lo:hi])
}

// Bytes returns the size of the backing storage in bytes (8 per
// element; a 64-lane batch over 32 M vertices carries 256 MB of lane
// state but amortizes every adjacency scan across the whole batch).
func (l *Lanes) Bytes() int { return len(l.words) * 8 }

// Count returns the number of set bits. The count is only exact when no
// concurrent mutation is in flight.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i].Load())
	}
	return c
}

// Bytes returns the size of the backing storage in bytes.
func (a *Atomic) Bytes() int { return len(a.words) * 8 }
