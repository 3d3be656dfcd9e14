package bitmap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewAllZero(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
	}
	if b.Count() != 0 {
		t.Errorf("Count = %d, want 0", b.Count())
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestNewAtomicPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAtomic(-1) did not panic")
		}
	}()
	NewAtomic(-1)
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestSetDoesNotDisturbNeighbours(t *testing.T) {
	b := New(192)
	b.Set(64)
	for i := 0; i < 192; i++ {
		if got := b.Get(i); got != (i == 64) {
			t.Errorf("bit %d = %v after Set(64)", i, got)
		}
	}
}

func TestTestAndSet(t *testing.T) {
	b := New(100)
	if b.TestAndSet(42) {
		t.Error("TestAndSet on clear bit returned true")
	}
	if !b.TestAndSet(42) {
		t.Error("TestAndSet on set bit returned false")
	}
	if !b.Get(42) {
		t.Error("bit not set after TestAndSet")
	}
}

func TestCount(t *testing.T) {
	b := New(1000)
	idx := []int{0, 5, 63, 64, 500, 999}
	for _, i := range idx {
		b.Set(i)
	}
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
	b.Set(0) // setting twice must not double-count
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count after duplicate Set = %d, want %d", got, len(idx))
	}
}

func TestReset(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", b.Count())
	}
}

func TestLenAndBytes(t *testing.T) {
	cases := []struct{ n, words int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		b := New(c.n)
		if b.Len() != c.n {
			t.Errorf("New(%d).Len() = %d", c.n, b.Len())
		}
		if b.Bytes() != c.words*8 {
			t.Errorf("New(%d).Bytes() = %d, want %d", c.n, b.Bytes(), c.words*8)
		}
	}
}

func TestWorkingSetClaim(t *testing.T) {
	// Paper: "in 4MB we can store all the visit information for a graph
	// with 32 million vertices".
	b := New(32 << 20)
	if b.Bytes() != 4<<20 {
		t.Errorf("32M-vertex bitmap occupies %d bytes, want %d", b.Bytes(), 4<<20)
	}
}

func TestAtomicSetGet(t *testing.T) {
	a := NewAtomic(130)
	for _, i := range []int{0, 63, 64, 129} {
		if a.Get(i) {
			t.Errorf("bit %d set in fresh atomic bitmap", i)
		}
		a.Set(i)
		if !a.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
}

func TestAtomicTestAndSet(t *testing.T) {
	a := NewAtomic(100)
	if a.TestAndSet(7) {
		t.Error("TestAndSet on clear bit returned true")
	}
	if !a.TestAndSet(7) {
		t.Error("TestAndSet on set bit returned false")
	}
}

func TestAtomicClear(t *testing.T) {
	a := NewAtomic(100)
	a.Clear(7) // clearing a clear bit is a no-op
	if a.Get(7) {
		t.Error("bit set after Clear on clear bit")
	}
	a.Set(7)
	a.Set(8) // same word
	a.Clear(7)
	if a.Get(7) {
		t.Error("bit still set after Clear")
	}
	if !a.Get(8) {
		t.Error("Clear disturbed a neighbouring bit")
	}
}

// TestAtomicConcurrentSetClear drives Set and Clear on distinct bits of
// shared words from many goroutines — the hybrid BFS frontier
// build/clear pattern, where an index-partitioned frontier slice lands
// arbitrary vertices on the same word.
func TestAtomicConcurrentSetClear(t *testing.T) {
	const goroutines = 8
	const bits = 512
	a := NewAtomic(bits)
	for i := 0; i < bits; i += 2 {
		a.Set(i) // even bits pre-set, cleared below; odd bits set below
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < bits; i += goroutines {
				if i%2 == 0 {
					a.Clear(i)
				} else {
					a.Set(i)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < bits; i++ {
		if want := i%2 == 1; a.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, a.Get(i), want)
		}
	}
}

func TestAtomicReset(t *testing.T) {
	a := NewAtomic(256)
	for i := 0; i < 256; i += 7 {
		a.Set(i)
	}
	a.Reset()
	if a.Count() != 0 {
		t.Errorf("Count after Reset = %d", a.Count())
	}
}

// TestAtomicClearWordOf checks the O(touched) reset primitive: it zeroes
// exactly the 64-bit word holding the given bit, set bits it shares the
// word with included, and no other word.
func TestAtomicClearWordOf(t *testing.T) {
	a := NewAtomic(200)
	for _, i := range []int{0, 63, 64, 70, 127, 128, 199} {
		a.Set(i)
	}
	a.ClearWordOf(100) // word 1: bits 64..127, 100 itself was clear
	for i := 0; i < 200; i++ {
		want := i == 0 || i == 63 || i == 128 || i == 199
		if a.Get(i) != want {
			t.Errorf("bit %d = %v after ClearWordOf(100), want %v", i, a.Get(i), want)
		}
	}
	for _, i := range []int{0, 150, 199} { // 199 lies in the partial last word
		a.ClearWordOf(i)
	}
	if a.Count() != 0 {
		t.Errorf("Count = %d after clearing every set word, want 0", a.Count())
	}
}

func TestLanesClear(t *testing.T) {
	l := NewLanes(3)
	for i := 0; i < 3; i++ {
		l.Or(i, ^uint64(0))
	}
	l.Clear(1)
	for i, want := range []uint64{^uint64(0), 0, ^uint64(0)} {
		if got := l.Load(i); got != want {
			t.Errorf("word %d = %#x after Clear(1), want %#x", i, got, want)
		}
	}
}

// TestAtomicTestAndSetExactlyOneWinner is the invariant the BFS relies on:
// when many goroutines race to claim the same vertex, exactly one observes
// "previously unset".
func TestAtomicTestAndSetExactlyOneWinner(t *testing.T) {
	const goroutines = 16
	const bits = 512
	a := NewAtomic(bits)
	wins := make([]int, goroutines)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < bits; i++ {
				if !a.TestAndSet(i) {
					wins[g]++
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != bits {
		t.Errorf("total wins = %d, want exactly %d (one winner per bit)", total, bits)
	}
	if a.Count() != bits {
		t.Errorf("Count = %d, want %d", a.Count(), bits)
	}
}

func TestAtomicConcurrentDisjointSets(t *testing.T) {
	const goroutines = 8
	const per = 1000
	a := NewAtomic(goroutines * per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * per; i < (g+1)*per; i++ {
				a.Set(i)
			}
		}(g)
	}
	wg.Wait()
	if a.Count() != goroutines*per {
		t.Errorf("Count = %d, want %d", a.Count(), goroutines*per)
	}
}

func TestQuickBitmapMatchesMapModel(t *testing.T) {
	// Property: a Bitmap behaves like a set of ints.
	f := func(ops []uint16) bool {
		const n = 1 << 12
		b := New(n)
		model := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			switch op % 3 {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				b.Clear(i)
				delete(model, i)
			case 2:
				if b.Get(i) != model[i] {
					return false
				}
			}
		}
		return b.Count() == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTestAndSetIdempotent(t *testing.T) {
	f := func(idx []uint16) bool {
		const n = 1 << 12
		a := NewAtomic(n)
		for _, raw := range idx {
			i := int(raw) % n
			first := a.TestAndSet(i)
			second := a.TestAndSet(i)
			_ = first
			if !second { // second call must always see the bit set
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkBitmapGet(b *testing.B) {
	bm := New(32 << 20)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = bm.Get((i * 2654435761) & (32<<20 - 1))
	}
	_ = sink
}

func BenchmarkAtomicGet(b *testing.B) {
	bm := NewAtomic(32 << 20)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = bm.Get((i * 2654435761) & (32<<20 - 1))
	}
	_ = sink
}

func BenchmarkAtomicTestAndSet(b *testing.B) {
	bm := NewAtomic(32 << 20)
	for i := 0; i < b.N; i++ {
		bm.TestAndSet((i * 2654435761) & (32<<20 - 1))
	}
}

// BenchmarkAtomicDoubleChecked quantifies the paper's Fig. 4 idiom: on a
// mostly-set bitmap, a plain probe before the atomic op avoids the locked
// instruction almost always.
func BenchmarkAtomicDoubleChecked(b *testing.B) {
	bm := NewAtomic(1 << 20)
	for i := 0; i < 1<<20; i++ {
		bm.Set(i)
	}
	for i := 0; i < b.N; i++ {
		v := (i * 2654435761) & (1<<20 - 1)
		if !bm.Get(v) {
			bm.TestAndSet(v)
		}
	}
}

func TestLanesNewAllZero(t *testing.T) {
	l := NewLanes(100)
	if l.Len() != 100 {
		t.Errorf("Len = %d, want 100", l.Len())
	}
	if l.Bytes() != 800 {
		t.Errorf("Bytes = %d, want 800", l.Bytes())
	}
	for i := 0; i < 100; i++ {
		if l.Load(i) != 0 {
			t.Fatalf("word %d = %#x in fresh Lanes", i, l.Load(i))
		}
	}
}

func TestLanesNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLanes(-1) did not panic")
		}
	}()
	NewLanes(-1)
}

func TestLanesOrReturnsPrevious(t *testing.T) {
	l := NewLanes(4)
	if old := l.Or(1, 0b0101); old != 0 {
		t.Errorf("first Or returned %#x, want 0", old)
	}
	if old := l.Or(1, 0b0110); old != 0b0101 {
		t.Errorf("second Or returned %#x, want 0b0101", old)
	}
	if got := l.Load(1); got != 0b0111 {
		t.Errorf("word = %#x, want 0b0111", got)
	}
	// Subset already present: short-circuit still reports the old value.
	if old := l.Or(1, 0b0001); old != 0b0111 {
		t.Errorf("subset Or returned %#x, want 0b0111", old)
	}
	if l.Load(0) != 0 || l.Load(2) != 0 {
		t.Error("Or disturbed neighbouring words")
	}
}

func TestLanesStoreAndResetWords(t *testing.T) {
	l := NewLanes(10)
	for i := 0; i < 10; i++ {
		l.Or(i, uint64(i)+1)
	}
	l.ResetWords(2, 5)
	for i := 0; i < 10; i++ {
		want := uint64(i) + 1
		if i >= 2 && i < 5 {
			want = 0
		}
		if got := l.Load(i); got != want {
			t.Errorf("word %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestLanesConcurrentOr hammers one word from many goroutines, each
// claiming a distinct lane bit; every claim must be won exactly once
// and the word must end with every bit set.
func TestLanesConcurrentOr(t *testing.T) {
	l := NewLanes(1)
	var wg sync.WaitGroup
	wins := make([]int, 64)
	for lane := 0; lane < 64; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			mask := uint64(1) << uint(lane)
			for k := 0; k < 100; k++ {
				if old := l.Or(0, mask); old&mask == 0 {
					wins[lane]++
				}
			}
		}(lane)
	}
	wg.Wait()
	if got := l.Load(0); got != ^uint64(0) {
		t.Errorf("word = %#x, want all ones", got)
	}
	for lane, w := range wins {
		if w != 1 {
			t.Errorf("lane %d claimed %d times, want exactly once", lane, w)
		}
	}
}
