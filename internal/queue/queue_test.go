package queue

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// --- TicketLock ---

func TestTicketLockMutualExclusion(t *testing.T) {
	var l TicketLock
	counter := 0
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Errorf("counter = %d, want %d (lost updates)", counter, goroutines*iters)
	}
}

func TestTicketLockFIFOUnderSequentialAcquire(t *testing.T) {
	// With a single goroutine, repeated Lock/Unlock must never hang and
	// must preserve the ticket discipline across many cycles (counter
	// wraps are 2^64 away; this exercises the basic progression).
	var l TicketLock
	for i := 0; i < 10000; i++ {
		l.Lock()
		l.Unlock()
	}
}

// --- SPSC ---

func TestSPSCSequentialFIFO(t *testing.T) {
	q := NewSPSC()
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(i * 3)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d failed", i)
		}
		if v != i*3 {
			t.Fatalf("Dequeue %d = %d, want %d", i, v, i*3)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Error("Dequeue on empty queue succeeded")
	}
}

func TestSPSCEmptyInitially(t *testing.T) {
	q := NewSPSC()
	if _, ok := q.Dequeue(); ok {
		t.Error("fresh queue not empty")
	}
}

func TestSPSCZeroValue(t *testing.T) {
	// Value 0 must round-trip despite the zero-means-empty encoding.
	q := NewSPSC()
	q.Enqueue(0)
	v, ok := q.Dequeue()
	if !ok || v != 0 {
		t.Errorf("Dequeue = (%d, %v), want (0, true)", v, ok)
	}
}

func TestSPSCMaxValue(t *testing.T) {
	q := NewSPSC()
	q.Enqueue(maxValue)
	v, ok := q.Dequeue()
	if !ok || v != maxValue {
		t.Errorf("Dequeue = (%d, %v), want (%d, true)", v, ok, uint64(maxValue))
	}
}

func TestSPSCRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue(maxValue+1) did not panic")
		}
	}()
	NewSPSC().Enqueue(maxValue + 1)
}

func TestSPSCSegmentOverflow(t *testing.T) {
	// Enqueue several segments' worth without draining; order must hold.
	q := NewSPSC()
	const n = segSize*3 + 17
	for i := uint64(0); i < n; i++ {
		q.Enqueue(i)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Error("queue should be empty")
	}
}

// TestSPSCSegmentPoolGrowsGeometrically drives one queue through
// bursts of rising and falling size, each enqueued in full before it is
// drained — the shape of a channel's traffic in one BFS level. A burst
// that needs more segments than the queue owns costs one allocation per
// doubling of the pool, so allocations grow with the log of the peak,
// and a burst that fits costs none.
func TestSPSCSegmentPoolGrowsGeometrically(t *testing.T) {
	// No collection may run mid-burst: a GC cycle allocates on its own
	// account and would blur the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := NewSPSC()
	burst := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			q.Enqueue(uint64(i))
		}
		for i := 0; i < n; i++ {
			if v, ok := q.Dequeue(); !ok || v != uint64(i) {
				t.Fatalf("burst of %d: Dequeue %d = (%d, %v)", n, i, v, ok)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	owned := 1 // NewSPSC's first segment
	for _, b := range []struct {
		n      int    // values in the burst
		allocs uint64 // pool doublings it needs
	}{
		{segSize, 0},       // fits the first segment
		{3 * segSize, 2},   // 1 → 2 → 4 segments
		{10 * segSize, 2},  // 4 → 8 → 16
		{40 * segSize, 2},  // 16 → 32 → 64
		{20 * segSize, 0},  // falling: every burst below the peak fits
		{5*segSize + 7, 0}, // and leaves the producer mid-segment
		{1, 0},
		{64 * segSize, 0}, // exactly the pool, from mid-segment
		{65 * segSize, 1}, // 64 → 128
		{128 * segSize, 0},
		{7 * segSize, 0},
	} {
		if got := burst(b.n); got != b.allocs {
			t.Errorf("burst of %d values (pool %d segments): %d allocations, want %d",
				b.n, owned, got, b.allocs)
		}
		owned <<= b.allocs
		if q.owned != owned {
			t.Errorf("after a burst of %d values the queue owns %d segments, want %d", b.n, q.owned, owned)
		}
	}
}

func TestSPSCInterleavedWrap(t *testing.T) {
	// Exercise in-segment wraparound: fill half, drain half, repeatedly,
	// crossing the segment boundary many times.
	q := NewSPSC()
	next := uint64(0)
	expect := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < segSize/2+13; i++ {
			q.Enqueue(next)
			next++
		}
		for i := 0; i < segSize/2+13; i++ {
			v, ok := q.Dequeue()
			if !ok || v != expect {
				t.Fatalf("round %d: Dequeue = (%d, %v), want %d", round, v, ok, expect)
			}
			expect++
		}
	}
}

func TestSPSCConcurrent(t *testing.T) {
	q := NewSPSC()
	const n = 200000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < n; i++ {
			q.Enqueue(i)
		}
	}()
	expect := uint64(0)
	for expect < n {
		v, ok := q.Dequeue()
		if !ok {
			continue
		}
		if v != expect {
			t.Fatalf("out of order: got %d, want %d", v, expect)
		}
		expect++
	}
	<-done
	if _, ok := q.Dequeue(); ok {
		t.Error("extra element after consuming all")
	}
}

func TestQuickSPSCMirrorsSliceQueue(t *testing.T) {
	f := func(ops []uint16) bool {
		q := NewSPSC()
		var model []uint64
		for _, op := range ops {
			if op%2 == 0 {
				v := uint64(op)
				q.Enqueue(v)
				model = append(model, v)
			} else {
				v, ok := q.Dequeue()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		// Drain: the queue must hold exactly the model's remainder.
		for _, want := range model {
			if v, ok := q.Dequeue(); !ok || v != want {
				return false
			}
		}
		_, ok := q.Dequeue()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Channel ---

func TestChannelRoundTrip(t *testing.T) {
	c := NewChannel()
	in := []Tuple{{V: 1, Parent: 2}, {V: 0, Parent: 0}, {V: 1<<31 - 1, Parent: 7}}
	c.SendBatch(in)
	buf := make([]Tuple, 10)
	n := c.ReceiveBatch(buf)
	if n != len(in) {
		t.Fatalf("ReceiveBatch = %d, want %d", n, len(in))
	}
	for i := range in {
		if buf[i] != in[i] {
			t.Errorf("tuple %d = %+v, want %+v", i, buf[i], in[i])
		}
	}
}

func TestChannelEmptyReceive(t *testing.T) {
	c := NewChannel()
	buf := make([]Tuple, 4)
	if n := c.ReceiveBatch(buf); n != 0 {
		t.Errorf("ReceiveBatch on empty channel = %d", n)
	}
	if n := c.ReceiveBatch(nil); n != 0 {
		t.Errorf("ReceiveBatch with nil buffer = %d", n)
	}
	c.SendBatch(nil) // must not panic
}

func TestChannelPartialReceive(t *testing.T) {
	c := NewChannel()
	var in []Tuple
	for i := uint32(0); i < 100; i++ {
		in = append(in, Tuple{V: i, Parent: i + 1})
	}
	c.SendBatch(in)
	buf := make([]Tuple, 7)
	var got []Tuple
	for {
		n := c.ReceiveBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != 100 {
		t.Fatalf("received %d tuples, want 100", len(got))
	}
	for i := range got {
		if got[i] != in[i] {
			t.Errorf("tuple %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestChannelManyProducersManyConsumers(t *testing.T) {
	// The paper's configuration: all threads of one socket produce, all
	// threads of another consume. Every tuple sent must arrive exactly
	// once.
	c := NewChannel()
	const producers, consumers = 4, 4
	const perProducer = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Tuple, 0, 64)
			for i := 0; i < perProducer; i++ {
				batch = append(batch, Tuple{V: uint32(p*perProducer + i), Parent: uint32(p)})
				if len(batch) == cap(batch) {
					c.SendBatch(batch)
					batch = batch[:0]
				}
			}
			c.SendBatch(batch)
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[uint32]bool)
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < consumers; r++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			buf := make([]Tuple, 64)
			for {
				n := c.ReceiveBatch(buf)
				if n == 0 {
					select {
					case <-stop:
						// Final drain after producers finish.
						for {
							n := c.ReceiveBatch(buf)
							if n == 0 {
								return
							}
							mu.Lock()
							for _, tp := range buf[:n] {
								if seen[tp.V] {
									t.Errorf("duplicate tuple %d", tp.V)
								}
								seen[tp.V] = true
							}
							mu.Unlock()
						}
					default:
						continue
					}
				}
				mu.Lock()
				for _, tp := range buf[:n] {
					if seen[tp.V] {
						t.Errorf("duplicate tuple %d", tp.V)
					}
					seen[tp.V] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Errorf("received %d distinct tuples, want %d", len(seen), producers*perProducer)
	}
}

func TestChannelStats(t *testing.T) {
	c := NewChannel()
	// Stats off: everything reads as zero.
	c.SendBatch([]Tuple{{V: 1}})
	if s := c.Stats(); s != (ChannelStats{}) {
		t.Errorf("stats without EnableStats = %+v", s)
	}

	c = NewChannel()
	c.EnableStats()
	c.SendBatch(nil) // empty flushes are not batches
	c.SendBatch([]Tuple{{V: 1}, {V: 2}, {V: 3}})
	c.SendBatch([]Tuple{{V: 4}})
	c.SendBatch([]Tuple{{V: 5}})
	s := c.Stats()
	if s.Batches != 3 || s.Tuples != 5 {
		t.Errorf("batches=%d tuples=%d, want 3/5", s.Batches, s.Tuples)
	}
	if s.MaxBatch != 3 {
		t.Errorf("MaxBatch = %d, want 3", s.MaxBatch)
	}
	if s.MaxLen != 5 {
		t.Errorf("MaxLen = %d, want 5 (nothing drained yet)", s.MaxLen)
	}

	// High-water marks reset; cumulative counters survive.
	c.ResetHighWater()
	s = c.Stats()
	if s.MaxBatch != 0 || s.MaxLen != 0 {
		t.Errorf("high-water not reset: %+v", s)
	}
	if s.Batches != 3 || s.Tuples != 5 {
		t.Errorf("cumulative counters lost on reset: %+v", s)
	}

	// Draining then sending again: MaxLen reflects post-drain occupancy.
	buf := make([]Tuple, 8)
	c.ReceiveBatch(buf)
	c.SendBatch([]Tuple{{V: 6}})
	if s = c.Stats(); s.MaxLen != 1 {
		t.Errorf("MaxLen after drain+send = %d, want 1", s.MaxLen)
	}
}

func TestQuickTuplePackRoundTrip(t *testing.T) {
	f := func(v, p uint32) bool {
		v &= 1<<31 - 1
		tu := Tuple{V: v, Parent: p}
		return unpackTuple(packTuple(tu)) == tu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- ChunkQueue ---

// noEdges returns the CSR offsets of n zero-degree vertices. Under them
// an adjacency budget never cuts a chunk, so PopChunkEdges claims by
// count alone, up to max elements, the limit and the published tail.
func noEdges(n int) []int64 { return make([]int64, n+1) }

// untilTail is a level limit past any tail: pops stop at the published
// tail alone.
const untilTail = math.MaxInt64

func TestChunkQueuePushPop(t *testing.T) {
	q := NewChunkQueue(100)
	offs := noEdges(100)
	q.Publish(q.Append(0, 5))
	q.PushBatch([]uint32{6, 7, 8})
	if q.Len() != 4 || q.Size() != 4 {
		t.Fatalf("Len=%d Size=%d, want 4, 4", q.Len(), q.Size())
	}
	chunk := q.PopChunkEdges(2, 1, untilTail, offs)
	if len(chunk) != 2 || chunk[0] != 5 || chunk[1] != 6 {
		t.Fatalf("PopChunkEdges = %v", chunk)
	}
	chunk = q.PopChunkEdges(10, 1, untilTail, offs)
	if len(chunk) != 2 || chunk[0] != 7 || chunk[1] != 8 {
		t.Fatalf("second PopChunkEdges = %v", chunk)
	}
	if q.PopChunkEdges(1, 1, untilTail, offs) != nil {
		t.Error("PopChunkEdges on drained queue returned data")
	}
}

func TestChunkQueuePopChunkZeroMax(t *testing.T) {
	q := NewChunkQueue(10)
	offs := noEdges(10)
	q.Publish(q.Append(0, 1))
	if q.PopChunkEdges(0, 1, untilTail, offs) != nil {
		t.Error("PopChunkEdges with max 0 returned data")
	}
	if q.PopChunkEdges(-1, 1, untilTail, offs) != nil {
		t.Error("PopChunkEdges with max -1 returned data")
	}
}

func TestChunkQueueReset(t *testing.T) {
	q := NewChunkQueue(10)
	offs := noEdges(10)
	q.PushBatch([]uint32{1, 2, 3})
	q.PopChunkEdges(1, 1, untilTail, offs)
	q.Reset()
	if q.Len() != 0 || q.Size() != 0 {
		t.Errorf("after Reset: Len=%d Size=%d", q.Len(), q.Size())
	}
	q.Publish(q.Append(0, 9))
	chunk := q.PopChunkEdges(5, 1, untilTail, offs)
	if len(chunk) != 1 || chunk[0] != 9 {
		t.Errorf("after Reset PopChunkEdges = %v", chunk)
	}
}

func TestChunkQueueOverflowPanics(t *testing.T) {
	q := NewChunkQueue(2)
	q.PushBatch([]uint32{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.Append(2, 3)
}

// TestChunkQueueAppendPublish checks the single-producer path: an
// appended element stays invisible to every reader until its tail is
// published, and a publish exposes exactly the elements below it.
func TestChunkQueueAppendPublish(t *testing.T) {
	q := NewChunkQueue(8)
	offs := noEdges(16)
	q.Publish(q.Append(0, 10))
	tail := q.Append(int64(q.Size()), 11)
	tail = q.Append(tail, 12)
	if q.Size() != 1 || q.Len() != 1 {
		t.Fatalf("before publish: Size=%d Len=%d, want 1, 1", q.Size(), q.Len())
	}
	if s := q.Slice(); len(s) != 1 || s[0] != 10 {
		t.Fatalf("before publish: Slice = %v, want [10]", s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Window past the published tail did not panic")
			}
		}()
		q.Window(0, tail)
	}()
	if got := q.PopChunkEdges(8, 1, tail, offs); len(got) != 1 || got[0] != 10 {
		t.Fatalf("before publish: PopChunkEdges to the limit = %v, want [10]", got)
	}
	if got := q.PopChunkEdges(8, 1, untilTail, offs); got != nil {
		t.Fatalf("before publish: PopChunkEdges to the tail = %v, want nil", got)
	}

	q.Publish(tail)
	if q.Size() != 3 || q.Len() != 2 {
		t.Fatalf("after publish: Size=%d Len=%d, want 3, 2", q.Size(), q.Len())
	}
	if s := q.Slice(); len(s) != 3 || s[1] != 11 || s[2] != 12 {
		t.Fatalf("after publish: Slice = %v, want [10 11 12]", s)
	}
	if w := q.Window(1, tail); len(w) != 2 || w[0] != 11 || w[1] != 12 {
		t.Fatalf("after publish: Window(1, 3) = %v, want [11 12]", w)
	}
	if got := q.PopChunkEdges(8, 1, tail, offs); len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("after publish: PopChunkEdges = %v, want [11 12]", got)
	}
	// A batching producer claims past the published tail.
	q.PushBatch([]uint32{13})
	if s := q.Slice(); len(s) != 4 || s[3] != 13 {
		t.Fatalf("PushBatch after publish: Slice = %v, want [10 11 12 13]", s)
	}
}

func TestChunkQueueSlice(t *testing.T) {
	q := NewChunkQueue(10)
	q.PushBatch([]uint32{4, 5, 6})
	s := q.Slice()
	if len(s) != 3 || s[0] != 4 || s[2] != 6 {
		t.Errorf("Slice = %v", s)
	}
}

func TestChunkQueueConcurrentProducers(t *testing.T) {
	const producers = 8
	const per = 1000
	q := NewChunkQueue(producers * per)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]uint32, 0, 32)
			for i := 0; i < per; i++ {
				batch = append(batch, uint32(p*per+i))
				if len(batch) == cap(batch) {
					q.PushBatch(batch)
					batch = batch[:0]
				}
			}
			q.PushBatch(batch)
		}(p)
	}
	wg.Wait()
	if q.Size() != producers*per {
		t.Fatalf("Size = %d, want %d", q.Size(), producers*per)
	}
	seen := make([]bool, producers*per)
	offs := noEdges(producers * per)
	for {
		chunk := q.PopChunkEdges(64, 1, untilTail, offs)
		if chunk == nil {
			break
		}
		for _, v := range chunk {
			if seen[v] {
				t.Fatalf("value %d appeared twice", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("value %d missing", v)
		}
	}
}

func TestChunkQueueConcurrentConsumers(t *testing.T) {
	const n = 10000
	q := NewChunkQueue(n)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	q.PushBatch(vals)
	offs := noEdges(n)
	const consumers = 8
	var mu sync.Mutex
	seen := make([]bool, n)
	var wg sync.WaitGroup
	for cns := 0; cns < consumers; cns++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				chunk := q.PopChunkEdges(17, 1, untilTail, offs)
				if chunk == nil {
					return
				}
				mu.Lock()
				for _, v := range chunk {
					if seen[v] {
						t.Errorf("value %d claimed twice", v)
					}
					seen[v] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for v, s := range seen {
		if !s {
			t.Fatalf("value %d never claimed", v)
		}
	}
}

// --- benchmarks ---

func BenchmarkSPSCEnqueueDequeue(b *testing.B) {
	q := NewSPSC()
	for i := 0; i < b.N; i++ {
		q.Enqueue(uint64(i))
		q.Dequeue()
	}
}

func BenchmarkChannelBatch64(b *testing.B) {
	c := NewChannel()
	batch := make([]Tuple, 64)
	for i := range batch {
		batch[i] = Tuple{V: uint32(i), Parent: uint32(i)}
	}
	buf := make([]Tuple, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SendBatch(batch)
		c.ReceiveBatch(buf)
	}
}

// BenchmarkChannelPerVertexCost measures the amortized per-vertex cost
// of the batched channel, the paper's ~30 ns/vertex claim.
func BenchmarkChannelPerVertexCost(b *testing.B) {
	c := NewChannel()
	const batchSize = 64
	batch := make([]Tuple, batchSize)
	buf := make([]Tuple, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		c.SendBatch(batch)
		c.ReceiveBatch(buf)
	}
}

func BenchmarkTicketLockUncontended(b *testing.B) {
	var l TicketLock
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

func BenchmarkChunkQueuePushPop(b *testing.B) {
	q := NewChunkQueue(1 << 16)
	batch := make([]uint32, 64)
	offs := noEdges(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PushBatch(batch)
		for q.PopChunkEdges(64, 1, untilTail, offs) != nil {
		}
		q.Reset()
	}
}

func TestChannelLen(t *testing.T) {
	c := NewChannel()
	if c.Len() != 0 {
		t.Errorf("fresh channel Len = %d", c.Len())
	}
	c.SendBatch([]Tuple{{V: 1}, {V: 2}, {V: 3}})
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	buf := make([]Tuple, 2)
	c.ReceiveBatch(buf)
	if c.Len() != 1 {
		t.Errorf("Len after partial receive = %d, want 1", c.Len())
	}
	c.SendBatch([]Tuple{{V: 4}})
	if c.Len() != 2 {
		t.Errorf("Len after Send = %d, want 2", c.Len())
	}
	if n := c.DiscardAll(); n != 2 || c.Len() != 0 {
		t.Errorf("DiscardAll dropped %d, Len %d after, want 2 and 0", n, c.Len())
	}
}

func TestChunkQueueCapAndPushBatchBounds(t *testing.T) {
	q := NewChunkQueue(8)
	if q.Cap() != 8 {
		t.Errorf("Cap = %d", q.Cap())
	}
	q.PushBatch(nil) // no-op
	if q.Size() != 0 {
		t.Errorf("Size after empty PushBatch = %d", q.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing PushBatch did not panic")
		}
	}()
	q.PushBatch(make([]uint32, 9))
}

// TestTicketLockContendedYieldPath forces the spin loop past its yield
// threshold by holding the lock while another goroutine waits.
func TestTicketLockContendedYieldPath(t *testing.T) {
	var l TicketLock
	l.Lock()
	acquired := make(chan struct{})
	go func() {
		l.Lock() // must spin long enough to hit the Gosched branch
		l.Unlock()
		close(acquired)
	}()
	time.Sleep(5 * time.Millisecond)
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never acquired the lock")
	}
}

func TestChunkQueueOverflowPanicMessage(t *testing.T) {
	// The panic must carry the cursor state so a CI-log invariant
	// violation is diagnosable without a reproducer.
	check := func(name string, wantTail string, f func(q *ChunkQueue)) {
		q := NewChunkQueue(3)
		q.PushBatch([]uint32{1, 2})
		q.PopChunkEdges(1, 1, untilTail, noEdges(3))
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: overflow did not panic", name)
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("%s: panic value %T, want string", name, r)
			}
			for _, want := range []string{"head=1", wantTail, "cap=3"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q missing %q", name, msg, want)
				}
			}
		}()
		f(q)
	}
	check("PushBatch", "tail=2", func(q *ChunkQueue) { q.PushBatch([]uint32{7, 8}) })
	check("Append", "tail=3", func(q *ChunkQueue) { q.PushBatch([]uint32{7}); q.Append(int64(q.Size()), 9) })
}

// edgeOffsets builds a CSR offsets array from per-vertex degrees.
func edgeOffsets(degs ...int64) []int64 {
	offs := make([]int64, len(degs)+1)
	for i, d := range degs {
		offs[i+1] = offs[i] + d
	}
	return offs
}

func TestChunkQueuePopChunkEdges(t *testing.T) {
	offs := edgeOffsets(2, 3, 5, 100, 1, 1, 4)
	q := NewChunkQueue(10)
	q.PushBatch([]uint32{0, 1, 2, 3, 4, 5, 6})
	limit := int64(q.Size())

	// Budget 10 admits vertices 0..2 (2+3+5 = 10 edges) and stops.
	if got := q.PopChunkEdges(128, 10, limit, offs); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("budgeted chunk = %v, want [0 1 2]", got)
	}
	// Vertex 3's degree (100) exceeds the budget alone: single-vertex
	// chunk, never an empty claim.
	if got := q.PopChunkEdges(128, 10, limit, offs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("hub chunk = %v, want [3]", got)
	}
	// max caps the vertex count even under a roomy budget.
	if got := q.PopChunkEdges(1, 1000, limit, offs); len(got) != 1 || got[0] != 4 {
		t.Fatalf("max-capped chunk = %v, want [4]", got)
	}
	// A partial fit stops before the vertex that would overflow.
	if got := q.PopChunkEdges(128, 3, limit, offs); len(got) != 1 || got[0] != 5 {
		t.Fatalf("partial-fit chunk = %v, want [5]", got)
	}
	if got := q.PopChunkEdges(128, 1000, limit, offs); len(got) != 1 || got[0] != 6 {
		t.Fatalf("tail chunk = %v, want [6]", got)
	}
	if got := q.PopChunkEdges(128, 1000, limit, offs); got != nil {
		t.Fatalf("drained window returned %v", got)
	}
}

func TestChunkQueuePopChunkEdgesRespectsLimit(t *testing.T) {
	offs := edgeOffsets(1, 1, 1, 1)
	q := NewChunkQueue(4)
	q.PushBatch([]uint32{0, 1, 2, 3})
	if got := q.PopChunkEdges(128, 1000, 2, offs); len(got) != 2 {
		t.Fatalf("windowed chunk = %v, want 2 elements", got)
	}
	if got := q.PopChunkEdges(128, 1000, 2, offs); got != nil {
		t.Fatalf("window exhausted but got %v", got)
	}
	// The next window picks up exactly where the previous one ended.
	if got := q.PopChunkEdges(128, 1000, 4, offs); len(got) != 2 || got[0] != 2 {
		t.Fatalf("next window = %v, want [2 3]", got)
	}
}

func TestChunkQueuePopChunkEdgesConcurrent(t *testing.T) {
	// Degrees vary wildly; concurrent consumers must partition the
	// window exactly (each element claimed once) regardless of races.
	const n = 1 << 12
	degs := make([]int64, n)
	for i := range degs {
		degs[i] = int64(i % 97)
		if i%131 == 0 {
			degs[i] = 5000 // hubs forcing single-vertex chunks
		}
	}
	offs := edgeOffsets(degs...)
	q := NewChunkQueue(n)
	tail := int64(0)
	for i := 0; i < n; i++ {
		tail = q.Append(tail, uint32(i))
	}
	q.Publish(tail)
	limit := int64(q.Size())

	const consumers = 8
	var wg sync.WaitGroup
	claimed := make([][]uint32, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				chunk := q.PopChunkEdges(64, 1000, limit, offs)
				if chunk == nil {
					return
				}
				claimed[c] = append(claimed[c], chunk...)
			}
		}(c)
	}
	wg.Wait()

	seen := make([]bool, n)
	total := 0
	for _, ch := range claimed {
		for _, v := range ch {
			if seen[v] {
				t.Fatalf("vertex %d claimed twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("claimed %d of %d elements", total, n)
	}
}

func TestChunkQueueHead(t *testing.T) {
	q := NewChunkQueue(8)
	q.PushBatch([]uint32{1, 2, 3, 4})
	if h := q.Head(); h != 0 {
		t.Fatalf("Head = %d, want 0", h)
	}
	q.PopChunkEdges(3, 1, untilTail, noEdges(5))
	if h := q.Head(); h != 3 {
		t.Fatalf("Head after pop = %d, want 3", h)
	}
	q.Reset()
	if h := q.Head(); h != 0 {
		t.Fatalf("Head after Reset = %d, want 0", h)
	}
}
