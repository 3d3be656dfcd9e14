package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"mcbfs/internal/bitmap"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
)

// This file implements batched multi-source BFS (MS-BFS): up to 64
// single-source searches advanced by one shared traversal. Where the
// paper's Algorithms 2–3 shrink one search's random working set (the
// visited bitmap) to relieve the memory-bandwidth bottleneck, MS-BFS
// attacks the same bottleneck from the other side for query-serving
// workloads: N concurrent queries over the same CSR no longer pay N
// full edge scans — one pass over a vertex's adjacency advances every
// lane whose frontier contains it, so each cache-missing edge load is
// amortized across the batch.
//
// The state is three lane-mask vectors (bitmap.Lanes, one 64-bit word
// per vertex):
//
//	seen[v]      — lanes that have reached v (the batched visited set)
//	visit[v]     — lanes whose current frontier contains v
//	visitNext[v] — lanes discovering v in this level
//
// plus the touched list the reset walks. A session built by
// NewBatchSearcher also keeps a lane-strided parent array, Width
// parents per vertex, for the callers that read trees (ParentOf,
// ExtractParents, BatchQuery). One built by
// NewBatchSearcherWithoutParents, for callers that read only the lane
// scalars, the seen masks and the touched list, allocates and writes
// no parents: the paper's Fig. 2 argument (a visited bit instead of a
// parent word in the random-access working set) applied to the batch.
//
// A top-down level's per-neighbour claim is the paper's double-checked
// pattern lifted to lane masks: a plain read of seen[w] first
// (d = visit[v] &^ seen[w]), and only when some lane bit looks clear
// the atomic OR — whose returned previous value, not the probe, decides
// which lane bits this worker actually won.
//
// On a graph flagged Symmetric, the dense middle levels run bottom up
// instead (Beamer et al.'s direction-optimizing step, applied to lane
// words as in Then et al., PVLDB 8(4), 2014): every vertex that some
// active lane has not seen scans its own row for frontier members of
// the lanes it misses and stops once all of them are found. Only the
// owner of a vertex writes its words in such a level, so it needs no
// atomic OR at all. The coordinator picks each level's direction from
// the next frontier's edges m_f and the unexplored edges m_u (see
// batchAlpha).
//
// Its worker pool, barriers and full clear are the engine (engine.go).

// MaxLanes is the number of concurrent sources one batch traversal can
// carry: the lane words are 64 bits wide.
const MaxLanes = 64

// BatchAlgorithmName labels MS-BFS traversals in telemetry samples.
const BatchAlgorithmName = "msbfs"

// batchAlpha is the direction rule's α: on a symmetric graph a level
// runs bottom up when its frontier's edges m_f exceed the unexplored
// edges m_u divided by batchAlpha, and top down otherwise. Both are
// summed over the active lanes, so the rule is Beamer's single-source
// rule applied to the batch as a whole: m_f is the rows each lane's
// next frontier holds, m_u the rows of the vertices each lane has not
// yet seen. Per-lane sums, not the union's rows, because a lane word
// stops its bottom-up scan only when every missing lane is found: lanes
// whose frontiers sit at different depths (a grid, a long path) make a
// bottom-up scan read whole rows, and their summed m_u keeps such
// levels top down. The value comes from interleaved runs of each α on
// permuted R-MAT graphs (EXPERIMENTS.md, "Bottom-up lane sweeps in
// MS-BFS"), not from the single-source tier's constants.
const batchAlpha = 4

// BatchOptions configures a BatchSearcher. The zero value is a 64-lane
// engine with GOMAXPROCS workers.
type BatchOptions struct {
	// Width is the maximum number of lanes (sources) per traversal,
	// 1..64. It sizes the lane-strided parent array, so sessions that
	// only ever batch 8 queries can pay an 8th of the parent memory
	// (sessions built by NewBatchSearcherWithoutParents have none).
	// 0 means 64.
	Width int
	// Threads is the number of worker goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Threads int
	// PinThreads pins each worker to a CPU for the session's lifetime,
	// as for Options.PinThreads.
	PinThreads bool
	// Telemetry, when non-nil, receives one batch sample per traversal
	// (lanes-per-traversal histogram; the shared vs. per-lane edge scans
	// are counted into the hub's Metrics) and one obs.QuerySample per
	// lane.
	Telemetry *obs.Telemetry
	// TelemetryShard selects the latency-histogram shard the per-lane
	// samples record into.
	TelemetryShard int
	// Ordering and Reordered select a locality-optimized vertex
	// relabeling exactly as for Options: the traversal runs on the
	// relabeled graph, roots are translated in, and every extraction
	// method (SeenMask, ParentOf, Touched, ExtractParents) translates
	// back out, so callers keep original vertex ids. Reordered overrides
	// Ordering and lets the batch engine share mcbfs.Pool's relabeled
	// CSR.
	Ordering  graph.Ordering
	Reordered *graph.Reordered
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.Width <= 0 {
		o.Width = MaxLanes
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// batchWorker is one pool worker's per-traversal scratch, padded so the
// end-of-level deposits of adjacent workers never share a cache line.
type batchWorker struct {
	// activeNext is the OR of lane bits this worker newly set in
	// visitNext during the level, and claimed the rows of the vertices
	// it claimed, once per claiming lane: its share of the next
	// frontier's m_f. The coordinator folds and zeroes both at the
	// barrier.
	activeNext uint64
	claimed    int64
	// edges counts adjacency entries this worker examined: a frontier
	// row once for the whole batch top down, each in-edge a bottom-up
	// scan reads.
	edges int64
	// laneEdges and laneReached are per-lane attribution: what each
	// lane's single-source search would have scanned and reached.
	laneEdges   [MaxLanes]int64
	laneReached [MaxLanes]int64
	// tbuf batches pushes onto the touched queue.
	tbuf []uint32
	_    [64]byte
}

// BatchSearcher is a reusable MS-BFS session bound to one graph: a
// persistent worker pool plus pooled lane state — seen/visit/visitNext
// lane vectors, the touched list and, unless the session was built by
// NewBatchSearcherWithoutParents, the lane-strided parent array —
// sized once and reused, so a warm Search performs zero per-batch heap
// allocations and pays an O(touched) reset rather than an O(n)
// reinitialization, exactly the Searcher contract.
//
// A BatchSearcher serves one batch at a time: Search and Close must not
// be called concurrently. For concurrent batch streams, create one
// BatchSearcher per stream (or use mcbfs.Pool's batching mode).
type BatchSearcher struct {
	engine
	o     BatchOptions
	width int // lane capacity; stride of parents

	seen      *bitmap.Lanes
	visit     *bitmap.Lanes
	visitNext *bitmap.Lanes
	touched   *queue.ChunkQueue // vertices with any seen bit — the O(touched) reset list
	// parents is n*width, vertex-major: parents[v*width+lane]. It is
	// nil in a session built by NewBatchSearcherWithoutParents, and
	// every store to it sits behind a nil check.
	parents []uint32

	// Ordering translation layer, as in Searcher: the lane vectors and
	// parent stride are indexed by relabeled ids; the engine's perm/inv
	// translate at the API boundary. extTouched is the pooled caller-id
	// copy of the touched list, filled lazily by BatchResult.Touched.
	// nil in natural order.
	extTouched []uint32

	ws []batchWorker

	// symmetric caches g.Symmetric(): only then may a level run bottom
	// up, because the bottom-up scan reads a vertex's row as its
	// in-edges.
	symmetric bool

	// Per-batch state, written by Search before the launch gate (the
	// gate's mutex publishes it to the workers).
	lanes    int
	laneMask uint64
	// activeMask holds the lanes that expand the current level: not
	// cancelled, with a non-empty frontier. bottomUp is the level's
	// direction. bottomUpLevels counts the batch's levels that ran
	// bottom up, and turns the direction changes from one level to the
	// next. All are coordinator-owned.
	activeMask            uint64
	bottomUp              bool
	bottomUpLevels, turns int
	ctx                   context.Context
	laneCtx               []context.Context // nil, or per-lane contexts (nil entries = background)
	cancelMask            laneCancel        // lanes whose bits stop propagating
	done                  atomic.Bool
	depth                 int // depth of the frontier being expanded

	laneLevels  [MaxLanes]int
	laneReached [MaxLanes]int64
	laneEdges   [MaxLanes]int64
	laneErr     [MaxLanes]error

	hasTouched bool
	res        BatchResult
}

// laneCancel is the cross-worker cancellation mask: one bit per lane,
// set by whichever party first observes that lane's context expired (a
// worker on whole-batch cancellation, the coordinator on per-lane
// polls). The Or is the same CAS loop as bitmap.Lanes.Or, for the same
// toolchain-portability reason.
type laneCancel struct{ v atomic.Uint64 }

func (c *laneCancel) Load() uint64   { return c.v.Load() }
func (c *laneCancel) Store(m uint64) { c.v.Store(m) }

func (c *laneCancel) Or(m uint64) {
	for {
		old := c.v.Load()
		if old&m == m {
			return
		}
		if c.v.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// NewBatchSearcher builds an MS-BFS session over g. Lane state for the
// full configured width is allocated eagerly, so the first Search pays
// only the traversal itself.
func NewBatchSearcher(g *graph.Graph, opt BatchOptions) (*BatchSearcher, error) {
	return newBatchSearcher(g, opt, true)
}

// NewBatchSearcherWithoutParents builds an MS-BFS session over g that
// records no BFS trees: it allocates no parent array (4×Width bytes
// per vertex) and its traversals store no parents, so their random
// writes touch only the lane words. Every lane scalar, SeenMask and
// Touched are as for NewBatchSearcher; ParentOf and ExtractParents
// panic. It serves callers that never read a tree, such as the
// serving pool's batch runners. It is a function, not an option,
// because mcbfs.BatchSearcher and mcbfs.BatchOptions alias this
// package's types, whose fields and methods are public API.
func NewBatchSearcherWithoutParents(g *graph.Graph, opt BatchOptions) (*BatchSearcher, error) {
	return newBatchSearcher(g, opt, false)
}

// newBatchSearcher builds a session for either constructor.
func newBatchSearcher(g *graph.Graph, opt BatchOptions, withParents bool) (*BatchSearcher, error) {
	o := opt.withDefaults()
	if o.Width > MaxLanes {
		return nil, fmt.Errorf("core: batch width %d exceeds %d lanes", o.Width, MaxLanes)
	}
	b := &BatchSearcher{
		engine: engine{workers: o.Threads},
		o:      o,
		width:  o.Width,
		ws:     make([]batchWorker, o.Threads),
	}
	if err := b.bindOrdering(g, o.Ordering, o.Reordered); err != nil {
		return nil, err
	}
	n := b.n
	b.seen, b.visit, b.visitNext = bitmap.NewLanes(n), bitmap.NewLanes(n), bitmap.NewLanes(n)
	b.touched = queue.NewChunkQueue(n)
	b.symmetric = b.g.Symmetric()
	if withParents {
		b.parents = make([]uint32, n*o.Width)
	}
	for w := range b.ws {
		b.ws[w].tbuf = make([]uint32, 0, 64)
	}
	b.res = BatchResult{
		b:       b,
		Roots:   make([]graph.Vertex, 0, o.Width),
		Reached: make([]int64, 0, o.Width),
		Edges:   make([]int64, 0, o.Width),
		Levels:  make([]int, 0, o.Width),
		Err:     make([]error, 0, o.Width),
	}
	b.start(o.PinThreads, b)
	return b, nil
}

// Width returns the session's lane capacity.
func (b *BatchSearcher) Width() int { return b.width }

// clearShard is worker w's share of the parallel full-reset fallback.
func (b *BatchSearcher) clearShard(w int) {
	lo, hi := b.wordShard(w)
	b.seen.ResetWords(lo, hi)
	b.visit.ResetWords(lo, hi)
	b.visitNext.ResetWords(lo, hi)
}

// resetState restores the lane vectors after the previous batch in
// O(touched): every vertex with any lane bit set — in seen, and
// therefore in visit/visitNext, which only ever hold subsets of seen —
// is on the touched queue, so walking it and zeroing the three words
// (plain stores; the pool is parked), or the engine's full clear,
// restores pristine state. The parent array needs no reset: entries are
// only ever read under a set seen bit.
func (b *BatchSearcher) resetState() {
	if !b.hasTouched {
		return
	}
	if !b.fullClear(b.touched.Size()) {
		for _, v := range b.touched.Slice() {
			b.seen.Clear(int(v))
			b.visit.Clear(int(v))
			b.visitNext.Clear(int(v))
		}
	}
	b.touched.Reset()
	b.hasTouched = false
}

// Search runs one batch of up to Width BFS traversals, one lane per
// root. The returned BatchResult — including everything reachable
// through its extraction methods — remains valid only until the next
// Search or Close on this BatchSearcher.
func (b *BatchSearcher) Search(roots []graph.Vertex) (*BatchResult, error) {
	return b.SearchLanes(context.Background(), roots, nil)
}

// SearchContext is Search bounded by one context covering the whole
// batch: when ctx is cancelled, every lane unwinds at the next level
// barrier (or worker checkpoint) and SearchContext returns ctx.Err().
func (b *BatchSearcher) SearchContext(ctx context.Context, roots []graph.Vertex) (*BatchResult, error) {
	return b.SearchLanes(ctx, roots, nil)
}

// SearchLanes is the serving-shape entry point: each lane may carry its
// own context (nil entries mean context.Background()). A lane whose
// context expires is cancelled individually — its bits are masked out
// of the propagation at the next level barrier, so it stops consuming
// bandwidth while the other lanes run to completion — and reports the
// context's error in BatchResult.Err; the batch itself still succeeds.
// ctx bounds the whole batch as for SearchContext.
func (b *BatchSearcher) SearchLanes(ctx context.Context, roots []graph.Vertex, laneCtx []context.Context) (*BatchResult, error) {
	if b.closed {
		return nil, errors.New("core: Search on a closed BatchSearcher")
	}
	if len(roots) == 0 {
		return nil, errors.New("core: batch with no roots")
	}
	if len(roots) > b.width {
		return nil, fmt.Errorf("core: %d roots exceed the session's %d lanes", len(roots), b.width)
	}
	if laneCtx != nil && len(laneCtx) != len(roots) {
		return nil, fmt.Errorf("core: %d lane contexts for %d roots", len(laneCtx), len(roots))
	}
	for i, r := range roots {
		if int(r) >= b.n {
			return nil, fmt.Errorf("core: root %d (lane %d) out of range [0,%d)", r, i, b.n)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: nothing searched and no state dirtied, but
		// every lane still counts as cancelled.
		b.recordCancelled(roots, time.Now(), 0, false)
		return nil, err
	}

	// A lane whose context is already dead is cancelled before the
	// first scan, so it deterministically reaches only its root. The
	// lane contexts are polled before any state is dirtied, so the seed
	// loop below calls nothing that can panic between its appends and
	// their publish.
	var cancelled uint64
	for i, lc := range laneCtx {
		if lc != nil && lc.Err() != nil {
			cancelled |= uint64(1) << uint(i)
		}
	}

	b.resetState()
	b.hasTouched = true
	b.ctx = ctx
	b.laneCtx = laneCtx
	b.lanes = len(roots)
	b.laneMask = laneAll(b.lanes)
	b.cancelMask.Store(0)
	b.done.Store(false)
	b.depth = 0

	// Seed the lanes; every live lane adds its root's row to the root
	// level's m_f. The pool is parked and resetState emptied the
	// touched queue, so the roots take its single-producer path.
	var mf int64
	tail := int64(0)
	for i, r := range roots {
		// The traversal runs in the session's id space; res.Roots echoes
		// the caller's original ids.
		ir := int(r)
		if b.perm != nil {
			ir = int(b.perm[r])
		}
		bit := uint64(1) << uint(i)
		if old := b.seen.Or(ir, bit); old == 0 {
			tail = b.touched.Append(tail, uint32(ir))
		}
		b.visit.Or(ir, bit)
		if b.parents != nil {
			b.parents[ir*b.width+i] = uint32(ir)
		}
		b.laneLevels[i] = 1
		b.laneReached[i] = 1
		b.laneEdges[i] = 0
		b.laneErr[i] = nil
		if cancelled&bit == 0 {
			mf += int64(b.g.Degree(graph.Vertex(ir)))
		}
	}
	b.touched.Publish(tail)
	b.cancelMask.Store(cancelled)
	b.activeMask = b.laneMask &^ cancelled
	if b.activeMask == 0 {
		// Every lane dead on arrival: no traversal, but the seeds are
		// dirty, so finish through the normal path.
		b.done.Store(true)
	}
	b.bottomUp = b.bottomUpNext(mf, b.activeMask)
	b.bottomUpLevels, b.turns = 0, 0
	if b.bottomUp {
		b.bottomUpLevels = 1
	}

	start := time.Now()
	if !b.done.Load() {
		b.runJob(jobSearch)
	}
	dur := time.Since(start)

	// Fold per-worker attribution into the lane totals. The fold also
	// zeroes the worker scratch, so it must run even when the batch is
	// about to unwind on ctx — stale slots would leak into the next
	// batch otherwise.
	var edges int64
	for w := range b.ws {
		ws := &b.ws[w]
		edges += ws.edges
		ws.edges = 0
		for l := 0; l < b.lanes; l++ {
			b.laneEdges[l] += ws.laneEdges[l]
			b.laneReached[l] += ws.laneReached[l]
			ws.laneEdges[l] = 0
			ws.laneReached[l] = 0
		}
	}

	if ctx.Err() != nil {
		// Whole-batch abort mirrors Searcher.SearchContext: the partial
		// lane state is not a result; reset happens lazily on the next
		// Search.
		b.recordCancelled(roots, start, dur, true)
		return nil, ctx.Err()
	}

	// Resolve per-lane errors for cancelled lanes.
	cm := b.cancelMask.Load()
	for l := 0; l < b.lanes; l++ {
		if cm&(1<<uint(l)) == 0 {
			continue
		}
		err := context.Canceled
		if laneCtx != nil && laneCtx[l] != nil && laneCtx[l].Err() != nil {
			err = laneCtx[l].Err()
		}
		b.laneErr[l] = err
	}

	res := &b.res
	res.Roots = append(res.Roots[:0], roots...)
	res.Lanes = b.lanes
	res.Reached = append(res.Reached[:0], b.laneReached[:b.lanes]...)
	res.Edges = append(res.Edges[:0], b.laneEdges[:b.lanes]...)
	res.Levels = append(res.Levels[:0], b.laneLevels[:b.lanes]...)
	res.Err = append(res.Err[:0], b.laneErr[:b.lanes]...)
	res.EdgesScanned = edges
	res.Duration = dur
	b.record(res, start)
	return res, nil
}

// recordCancelled counts each lane of a batch cancelled as a whole as
// one cancelled query, as Searcher counts a cancelled search. After a
// traversal, each lane's sample carries what the lane reached before
// the batch unwound; a batch dead on arrival reached nothing. The batch
// itself is not counted in RecordBatch: it has no result.
func (b *BatchSearcher) recordCancelled(roots []graph.Vertex, start time.Time, dur time.Duration, traversed bool) {
	t := b.o.Telemetry
	if t == nil {
		return
	}
	for l, r := range roots {
		q := obs.QuerySample{
			Root:      uint32(r),
			Start:     start,
			Duration:  dur,
			Outcome:   obs.OutcomeCancelled,
			Algorithm: BatchAlgorithmName,
		}
		if traversed {
			q.Levels, q.Reached, q.Edges = b.laneLevels[l], b.laneReached[l], b.laneEdges[l]
		}
		t.RecordQuery(b.o.TelemetryShard, q)
	}
}

// record hands the finished batch to the session's telemetry sinks.
func (b *BatchSearcher) record(res *BatchResult, start time.Time) {
	t := b.o.Telemetry
	if t == nil {
		return
	}
	var laneEdges int64
	for _, e := range res.Edges {
		laneEdges += e
	}
	t.RecordBatch(res.Lanes, res.EdgesScanned, laneEdges)
	for l := 0; l < res.Lanes; l++ {
		outcome := obs.OutcomeOK
		if res.Err[l] != nil {
			outcome = obs.OutcomeCancelled
		}
		t.RecordQuery(b.o.TelemetryShard, obs.QuerySample{
			Root:      uint32(res.Roots[l]),
			Start:     start,
			Duration:  res.Duration,
			Levels:    res.Levels[l],
			Reached:   res.Reached[l],
			Edges:     res.Edges[l],
			Outcome:   outcome,
			Algorithm: BatchAlgorithmName,
		})
	}
}

// batchCancelStride is how many frontier-vector words a worker scans
// between whole-batch context polls; per-lane contexts are polled by
// the coordinator at every level barrier.
const batchCancelStride = 1 << 12

// levelWorker runs one worker's share of the traversal: expand its
// range of each level in the direction the coordinator chose, then meet
// the others at the level barrier. The range is the engine's uniform
// word split, by vertex count: a split by edge mass was no faster on
// permuted ids and slower on natural order (DESIGN.md §15).
func (b *BatchSearcher) levelWorker(w int) {
	ws := &b.ws[w]
	lo, hi := b.wordShard(w)
	for {
		visit, bottomUp := b.visit, b.bottomUp
		if bottomUp {
			b.bottomUpLevel(ws, lo, hi)
		} else {
			b.topDownLevel(ws, lo, hi)
		}
		if b.bar.wait() {
			b.advanceBatch()
		}
		if bottomUp {
			// A bottom-up level reads every worker's visit words, so none
			// can be cleared during the sweep. Past the first barrier
			// nobody reads them: each owner clears its own range with
			// plain stores, and the second barrier orders the clear
			// before the swapped-out vector returns as visitNext.
			visit.ResetWords(lo, hi)
		}
		b.bar.wait()
		if b.done.Load() {
			return
		}
	}
}

// topDownLevel expands the worker's range [lo, hi) top down: scan visit
// for active lane masks and advance every lane across each vertex's
// adjacency in one pass. The owner both reads and clears its visit
// words, so after a full scan the vector is empty and becomes the next
// level's visitNext at the swap — no O(n) zeroing between levels.
func (b *BatchSearcher) topDownLevel(ws *batchWorker, lo, hi int) {
	g := b.g
	offsets := g.Offsets()
	width := b.width
	parents := b.parents
	visit, visitNext := b.visit, b.visitNext
	am := b.activeMask
	tbuf := ws.tbuf
	var active uint64
	var scanned, allEdges, claimed int64
	for v := lo; v < hi; v++ {
		if v&(batchCancelStride-1) == 0 && b.ctx.Err() != nil {
			b.cancelMask.Or(b.laneMask)
			break
		}
		m := visit.Load(v)
		if m == 0 {
			continue
		}
		// Plain store: during a level only the owner of [lo, hi)
		// reads or writes these visit words (the other workers OR
		// into visitNext), and the level barrier orders this clear
		// before the swap hands the vector back as visitNext.
		visit.Clear(v)
		m &= am
		if m == 0 {
			continue
		}
		nbrs := g.Neighbors(graph.Vertex(v))
		deg := int64(len(nbrs))
		scanned += deg
		// Per-lane edge attribution: the full-mask fast path keeps
		// the converged case at one add; partial masks pay one add
		// per set bit.
		if m == am {
			allEdges += deg
		} else {
			for t := m; t != 0; t &= t - 1 {
				ws.laneEdges[bits.TrailingZeros64(t)] += deg
			}
		}
		for _, nb := range nbrs {
			wv := int(nb)
			// Double-checked claim on the shared seen words: the
			// plain probe first; only lanes that look unseen pay
			// the atomic OR, and the OR's returned previous value
			// decides which bits this worker actually won.
			d := m &^ b.seen.Load(wv)
			if d == 0 {
				continue
			}
			old := b.seen.Or(wv, d)
			d &^= old
			if d == 0 {
				continue
			}
			if old == 0 {
				tbuf = append(tbuf, nb)
				if len(tbuf) == cap(tbuf) {
					b.touched.PushBatch(tbuf)
					tbuf = tbuf[:0]
				}
			}
			visitNext.Or(wv, d)
			// wv's row joins the next frontier's m_f once per lane
			// that claimed it.
			claimed += (offsets[wv+1] - offsets[wv]) * int64(bits.OnesCount64(d))
			active |= d
			if parents != nil {
				base := wv * width
				for t := d; t != 0; t &= t - 1 {
					parents[base+bits.TrailingZeros64(t)] = uint32(v)
				}
			}
			for t := d; t != 0; t &= t - 1 {
				ws.laneReached[bits.TrailingZeros64(t)]++
			}
		}
	}
	b.touched.PushBatch(tbuf)
	ws.tbuf = tbuf[:0]
	ws.endLevel(am, active, scanned, allEdges, claimed)
}

// bottomUpLevel expands the worker's range [lo, hi) bottom up: every
// owned vertex that some active lane has not yet seen scans its row —
// its in-edges, the graph being symmetric — for frontier members of the
// lanes it misses, and stops once all of them are found. During the
// level only the owner reads or writes its vertices' seen, visitNext
// and parent words, so all three take plain stores and no atomic OR;
// the other workers only read visit, which levelWorker clears after
// the first barrier.
func (b *BatchSearcher) bottomUpLevel(ws *batchWorker, lo, hi int) {
	g := b.g
	width := b.width
	parents := b.parents
	seen, visit, visitNext := b.seen, b.visit, b.visitNext
	am := b.activeMask
	tbuf := ws.tbuf
	var active uint64
	var scanned, allEdges, claimed int64
	for v := lo; v < hi; v++ {
		if v&(batchCancelStride-1) == 0 && b.ctx.Err() != nil {
			b.cancelMask.Or(b.laneMask)
			break
		}
		nbrs := g.Neighbors(graph.Vertex(v))
		deg := int64(len(nbrs))
		// m_a stays what the top-down sweep credits: v's row, once
		// for each lane whose frontier holds v, whatever this level
		// scans.
		if m := visit.Load(v) & am; m == am {
			allEdges += deg
		} else {
			for t := m; t != 0; t &= t - 1 {
				ws.laneEdges[bits.TrailingZeros64(t)] += deg
			}
		}
		s := seen.Load(v)
		missing := am &^ s
		if missing == 0 {
			continue
		}
		want := missing
		base := v * width
		i := 0
		for i < len(nbrs) && want != 0 {
			u := nbrs[i]
			i++
			d := visit.Load(int(u)) & want
			if d == 0 {
				continue
			}
			want &^= d
			if parents != nil {
				for t := d; t != 0; t &= t - 1 {
					parents[base+bits.TrailingZeros64(t)] = u
				}
			}
		}
		scanned += int64(i)
		found := missing &^ want
		if found == 0 {
			continue
		}
		seen.Store(v, s|found)
		visitNext.Store(v, found)
		if s == 0 {
			tbuf = append(tbuf, uint32(v))
			if len(tbuf) == cap(tbuf) {
				b.touched.PushBatch(tbuf)
				tbuf = tbuf[:0]
			}
		}
		claimed += deg * int64(bits.OnesCount64(found))
		active |= found
		for t := found; t != 0; t &= t - 1 {
			ws.laneReached[bits.TrailingZeros64(t)]++
		}
	}
	b.touched.PushBatch(tbuf)
	ws.tbuf = tbuf[:0]
	ws.endLevel(am, active, scanned, allEdges, claimed)
}

// endLevel deposits a level's counts for the coordinator and credits
// allEdges — the rows of frontier vertices that every lane of am shared
// — to each of those lanes. The credit is folded per level because am
// loses the lanes that finish or are cancelled, and because the
// coordinator reads each lane's m_a so far for the direction rule.
func (ws *batchWorker) endLevel(am, active uint64, scanned, allEdges, claimed int64) {
	ws.activeNext, ws.claimed = active, claimed
	ws.edges += scanned
	if allEdges != 0 {
		for t := am; t != 0; t &= t - 1 {
			ws.laneEdges[bits.TrailingZeros64(t)] += allEdges
		}
	}
}

// advanceBatch is the level transition, run by the coordinator elected
// at the first barrier (its writes are published to the other workers
// by the second): fold the workers' activity masks and edge counts,
// poll cancellation, stamp lane levels, swap the frontier vectors, and
// pick the next level's direction.
func (b *BatchSearcher) advanceBatch() {
	var folded uint64
	var mf int64
	for w := range b.ws {
		ws := &b.ws[w]
		folded |= ws.activeNext
		mf += ws.claimed
		ws.activeNext, ws.claimed = 0, 0
	}
	cm := b.cancelMask.Load()
	if b.ctx.Err() != nil {
		cm = b.laneMask
	} else if b.laneCtx != nil {
		for l := 0; l < b.lanes; l++ {
			bit := uint64(1) << uint(l)
			if cm&bit != 0 {
				continue
			}
			if c := b.laneCtx[l]; c != nil && c.Err() != nil {
				cm |= bit
			}
		}
	}
	b.cancelMask.Store(cm)
	active := folded &^ cm
	if active == 0 {
		b.done.Store(true)
		return
	}
	// Newly discovered vertices sit at depth+1; a lane active in this
	// fold therefore spans depth+2 levels (level 0 is the root).
	b.depth++
	for t := active; t != 0; t &= t - 1 {
		b.laneLevels[bits.TrailingZeros64(t)] = b.depth + 1
	}
	b.visit, b.visitNext = b.visitNext, b.visit
	b.activeMask = active
	bottomUp := b.bottomUpNext(mf, active)
	if bottomUp != b.bottomUp {
		b.turns++
	}
	if bottomUp {
		b.bottomUpLevels++
	}
	b.bottomUp = bottomUp
}

// bottomUpNext picks the direction of the next level, which the lanes
// of active expand, from its frontier's edges mf (see batchAlpha). A
// lane has seen the rows it has expanded so far (its m_a, which the
// workers' slots hold) and those of its next frontier, so m_u is every
// row once per active lane less both.
func (b *BatchSearcher) bottomUpNext(mf int64, active uint64) bool {
	if !b.symmetric {
		return false
	}
	switch Direction(direction.Load()) {
	case DirectionTopDown:
		return false
	case DirectionBottomUp:
		return true
	}
	mu := int64(bits.OnesCount64(active))*b.g.NumEdges() - mf
	for t := active; t != 0; t &= t - 1 {
		l := bits.TrailingZeros64(t)
		for w := range b.ws {
			mu -= b.ws[w].laneEdges[l]
		}
	}
	return mf*batchAlpha > mu
}

// laneAll returns the mask of the first lanes lane bits, handling the
// full 64-lane case where 1<<64 would overflow.
func laneAll(lanes int) uint64 {
	if lanes >= MaxLanes {
		return ^uint64(0)
	}
	return (uint64(1) << uint(lanes)) - 1
}

// BatchResult is the outcome of one MS-BFS batch. The per-lane slices
// are indexed by lane (the position of the root in the Search call);
// the extraction methods read the session's pooled lane state, so the
// whole result is valid only until the next Search or Close.
type BatchResult struct {
	// Roots echoes the batch's sources, one per lane.
	Roots []graph.Vertex
	// Lanes is the batch width actually run (len(Roots)).
	Lanes int
	// Reached[l] is the number of vertices in lane l's BFS tree,
	// including the root — identical to what the lane's single-source
	// search would report.
	Reached []int64
	// Edges[l] is the adjacency entries attributable to lane l (the
	// paper's m_a for that source): what a single-source search from
	// Roots[l] would have scanned. The sum over lanes divided by
	// EdgesScanned is the batch's bandwidth amortization factor.
	Edges []int64
	// Levels[l] is lane l's BFS level count (root eccentricity + 1).
	Levels []int
	// Err[l] is nil for a completed lane, or the lane context's error
	// for a lane cancelled mid-traversal.
	Err []error
	// EdgesScanned is the adjacency entries the shared traversal
	// examined: a top-down level scans each frontier row once for all
	// lanes whose frontier holds it, and a bottom-up level counts the
	// entries each scan reads before it has found every missing lane.
	EdgesScanned int64
	// Duration is the wall-clock time of the whole batch.
	Duration time.Duration

	b *BatchSearcher
}

// LaneTEPS returns lane l's traversed-edges-per-second rate, charging
// the lane its attributed edges over the shared batch duration divided
// evenly — i.e. the per-query figure a serving system would quote.
func (r *BatchResult) LaneTEPS(l int) float64 {
	if r.Duration <= 0 || r.Lanes == 0 {
		return 0
	}
	perLane := r.Duration.Seconds() / float64(r.Lanes)
	if perLane <= 0 {
		return 0
	}
	return float64(r.Edges[l]) / perLane
}

// SeenMask returns the lane bits that reached v — which of the batch's
// sources have v in their BFS tree. v is a caller-id vertex; with an
// active ordering it is translated through the session's permutation.
func (r *BatchResult) SeenMask(v graph.Vertex) uint64 {
	iv := int(v)
	if r.b.perm != nil {
		iv = int(r.b.perm[v])
	}
	return r.b.seen.Load(iv) & r.b.laneMask
}

// ParentOf returns v's parent in lane l's BFS tree, or NoParent when
// lane l did not reach v. The root's parent is the root itself. Both v
// and the returned parent are caller ids. It panics on a session built
// by NewBatchSearcherWithoutParents, which records no trees.
func (r *BatchResult) ParentOf(l int, v graph.Vertex) uint32 {
	r.mustHaveParents("ParentOf")
	iv := int(v)
	if r.b.perm != nil {
		iv = int(r.b.perm[v])
	}
	if r.b.seen.Load(iv)&(1<<uint(l)) == 0 {
		return NoParent
	}
	p := r.b.parents[iv*r.b.width+l]
	if r.b.inv != nil {
		p = uint32(r.b.inv[p])
	}
	return p
}

// Touched returns the vertices reached by at least one lane, in
// discovery order, as caller ids. In natural order the slice aliases
// the session's touched queue; with an active ordering it is the
// session's pooled translation buffer (allocated once, then reused).
// Either way, read it before the next Search.
func (r *BatchResult) Touched() []uint32 {
	raw := r.b.touched.Slice()
	if r.b.inv == nil {
		return raw
	}
	if cap(r.b.extTouched) < len(raw) {
		r.b.extTouched = make([]uint32, 0, r.b.n)
	}
	out := r.b.extTouched[:len(raw)]
	for i, v := range raw {
		out[i] = uint32(r.b.inv[v])
	}
	return out
}

// ExtractParents materializes lane l's full parent array (NoParent for
// unreached vertices, everything in caller ids) into dst, allocating
// when dst is too small. The fill is O(n) plus O(touched) for the
// reached entries — the price of detaching a lane's tree from the
// pooled state. It panics on a session built by
// NewBatchSearcherWithoutParents, which records no trees.
func (r *BatchResult) ExtractParents(l int, dst []uint32) []uint32 {
	r.mustHaveParents("ExtractParents")
	n := r.b.n
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	fillNoParent(dst)
	bit := uint64(1) << uint(l)
	width := r.b.width
	inv := r.b.inv
	for _, v := range r.b.touched.Slice() {
		if r.b.seen.Load(int(v))&bit == 0 {
			continue
		}
		p := r.b.parents[int(v)*width+l]
		if inv != nil {
			dst[inv[v]] = uint32(inv[p])
		} else {
			dst[v] = p
		}
	}
	return dst
}

// mustHaveParents panics unless the session records parents, so a
// parent-free session never hands out a tree it did not build.
func (r *BatchResult) mustHaveParents(method string) {
	if r.b.parents == nil {
		panic("core: BatchResult." + method + " on a session built by NewBatchSearcherWithoutParents, which records no parents")
	}
}

// LaneResult renders lane l as a scalar core.Result (Parents, PerLevel
// and Trace nil) — the shape mcbfs.Pool returns for batched queries.
func (r *BatchResult) LaneResult(l int) Result {
	return Result{
		Root:           r.Roots[l],
		Reached:        r.Reached[l],
		EdgesTraversed: r.Edges[l],
		Levels:         r.Levels[l],
		Duration:       r.Duration,
		Threads:        r.b.workers,
	}
}

// BatchQuery is the one-shot convenience wrapper: it creates a session
// sized to the batch, runs it, extracts every lane's parent array, and
// tears the session down. Callers issuing repeated batches should hold
// a BatchSearcher instead and amortize the setup.
func BatchQuery(g *graph.Graph, roots []graph.Vertex, opt BatchOptions) (*BatchTrees, error) {
	if opt.Width <= 0 {
		opt.Width = len(roots)
	}
	b, err := NewBatchSearcher(g, opt)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	res, err := b.Search(roots)
	if err != nil {
		return nil, err
	}
	out := &BatchTrees{
		Roots:        append([]graph.Vertex(nil), res.Roots...),
		Reached:      append([]int64(nil), res.Reached...),
		Edges:        append([]int64(nil), res.Edges...),
		Levels:       append([]int(nil), res.Levels...),
		EdgesScanned: res.EdgesScanned,
		Duration:     res.Duration,
		Parents:      make([][]uint32, res.Lanes),
	}
	for l := 0; l < res.Lanes; l++ {
		out.Parents[l] = res.ExtractParents(l, nil)
	}
	return out, nil
}

// BatchTrees is BatchQuery's detached result: per-lane parent arrays
// that outlive the session.
type BatchTrees struct {
	Roots        []graph.Vertex
	Reached      []int64
	Edges        []int64
	Levels       []int
	Parents      [][]uint32
	EdgesScanned int64
	Duration     time.Duration
}
