package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mcbfs/internal/bitmap"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
	"mcbfs/internal/topology"
)

// Query bounds one search on a Searcher. The zero value reruns the
// session's configuration.
type Query struct {
	// MaxLevels overrides Options.MaxLevels for this search: 0 keeps
	// the session setting, a negative value forces unbounded.
	MaxLevels int
}

// searchWorker is one pool worker's state: its claim mode, socket,
// queue and vertex block and its pooled scratch, all fixed by
// NewSearcher from the session's tier, plus the observation slot and
// counters that begin re-arms at the start of every search. A warm
// search allocates none of it. Only its own worker writes it during a
// search, and the trailing pad keeps adjacent workers' fields off a
// shared cache line.
type searchWorker struct {
	s    *Searcher
	wr   *obs.WorkerRec
	mode claimMode
	// this is the worker's socket, the index of its queue and block in
	// the session's partition (0 outside the multi-socket tier), and
	// [lo, lo+size) the vertex block that socket owns; q is the queue
	// the worker pops frontier chunks from and pushes claims to.
	this     int
	lo, size uint32
	q        *queue.ChunkQueue
	// local is the claimed-vertex batch (cap localBatch), flushed into
	// the next-level window of q when full.
	local []uint32
	// remote and recvBuf are the multi-socket tier's per-destination
	// send batches and channel receive buffer (nil in the other tiers).
	remote  [][]queue.Tuple
	recvBuf []queue.Tuple
	// st holds the counts of the level in progress; checkpoints counts
	// the worker's cancellation checkpoints.
	st          obs.Counters
	checkpoints int
	// edges and reached are the worker's run totals, read by the caller
	// after the finish gate.
	edges, reached int64
	_              [64]byte
}

// Searcher is a reusable BFS session bound to one graph: a persistent
// worker pool (goroutines parked on a gate between queries, pinned once
// when Options.PinThreads is set) plus pooled per-search state —
// parents, visited/frontier bitmaps, chunk queues, inter-socket
// channels and remote-batch buffers — sized to the graph and reused
// across calls. A warm Search performs zero per-search heap allocations
// of that state; the per-search cost is an O(touched) reset of what the
// previous search dirtied, not an O(n) reinitialization.
//
// The session's tier is fixed when NewSearcher builds it, and so is all
// of that tier's state. The reset stays O(touched) because each tier
// runs over *monotone* queues, one per block of the session's vertex
// partition (one block outside the multi-socket tier): a queue is never
// reset within a search, levels are windows [head, limit) advanced by
// the level coordinator, and when the search finishes the queues'
// contents are exactly the set of reached vertices — a free "touched
// list" that the next Search walks to clear the parent entries and
// visited words the last search wrote (falling back to a parallel full
// clear when touched ≳ n/4). The caller-id parent array is cleared only
// when a search since the last reset translated into it, and every clear
// is a plain store: the worker pool is parked on its gate while the
// reset runs.
//
// A Searcher serves one search at a time: Search, BFS and Close must
// not be called concurrently. For concurrent query streams, create one
// Searcher per stream — Searchers over the same graph are independent.
type Searcher struct {
	engine
	gt *graph.Graph // transpose; direction-optimizing tier only
	o  Options      // session options, resolved by withDefaults
	// threads is the worker count a search runs on: 1 in the sequential
	// tier, which runs inline, else the pool's.
	threads int
	// part splits the vertex range into one block per socket in the
	// multi-socket tier and into one block otherwise.
	part topology.Partition

	parents  []uint32
	visited  *bitmap.Atomic // the tiers that claim through it; nil in the others
	frontier *bitmap.Atomic // direction-optimizing tier only

	// Frontier scheduling: sched holds the session's chunk sizes, hubs
	// the shared board on which over-budget vertices are split (nil with
	// one worker, who expands them inline).
	sched schedule
	hubs  *hubBoard

	// Ordering translation layer (Options.Ordering / Options.Reordered):
	// the engine binds s.g to a relabeled copy of the caller's graph,
	// and extParents is the pooled caller-id parent array that results
	// expose. A query translates its root in (one array read) and, when
	// its caller reads parents, its parent tree out (one O(touched) walk
	// of the monotone queues); the reset clears extParents only after
	// such a translation, so warm queries stay allocation-free. nil when
	// the session runs in natural order.
	extParents []uint32

	// qs are the monotone queues, one per block of part: after a search
	// they hold its touched list. channels and prevChan are the
	// multi-socket tier's inter-socket channels and their last sampled
	// counters (nil in the other tiers).
	qs       []*queue.ChunkQueue
	channels []*queue.Channel
	prevChan []queue.ChannelStats

	ws []searchWorker

	// Per-search job description: written by Search before the launch
	// gate, read by workers after it. coll is nil when nothing observes
	// the search, else it points at collector.
	maxLevels int
	coll      *obs.Collector

	// collector is the session's obs collector, re-armed per observed
	// search by Collector.Reset, which reuses its worker slots and level
	// records, so a warm observed search allocates no collector state.
	// Its folded levels are what Result.PerLevel, the trace and the
	// flight recorder all read.
	collector obs.Collector

	// ctx is the current search's context; cancel is the cross-worker
	// abort flag, set by whichever party first observes ctx.Err() != nil
	// (a worker at a chunk-pop checkpoint, or the level coordinator at
	// the barrier). Workers that see it stop expanding, flush what they
	// claimed, and proceed through the normal level protocol, so the
	// monotone queues still hold exactly the touched set when the search
	// unwinds.
	ctx    context.Context
	cancel atomic.Bool

	// Level-coordination state: written by the coordinator elected at
	// the first level barrier, read by workers after the second (done
	// and bottomUp are atomic because workers also poll them at level
	// boundaries). limit[i] ends the current level's window of qs[i],
	// and prevLimit starts the shared queue's, which the bottom-up sweep
	// reads without popping.
	done      atomic.Bool
	bottomUp  atomic.Bool
	limit     []int64
	prevLimit int64
	levels    int

	// Dirty flags: what the last search wrote, and so what the next
	// resetState must restore. Each is set before the first write it
	// covers and cleared only by the reset, so a search that is
	// cancelled or panics midway stays covered, and the reset follows
	// what was written, not whether the next caller translates.
	// hasTouched covers the parent array, the visited bitmap and the
	// queues (every search), and extDirty the caller-id parent array (a
	// translated result).
	hasTouched bool
	extDirty   bool

	res Result
}

// NewSearcher builds a search session over g. The algorithm tier, its
// worker count and all tuning knobs come from opt exactly as they do
// for BFS, and are fixed for the session's lifetime: the tier's state
// is allocated here, so the first Search pays only the search itself.
func NewSearcher(g *graph.Graph, opt Options) (*Searcher, error) {
	return newSearcher(g, opt, schedule{})
}

// newSearcher is NewSearcher with the frontier scheduler's chunk sizes
// set by sched, whose zero value derives them from the graph.
func newSearcher(g *graph.Graph, opt Options, sched schedule) (*Searcher, error) {
	o := opt.withDefaults()
	if err := o.Machine.Validate(); err != nil {
		return nil, err
	}
	blocks, threads := 1, o.Threads
	switch o.Algorithm {
	case AlgSequential:
		threads = 1
	case AlgParallelSimple, AlgSingleSocket, AlgDirectionOptimizing:
	case AlgMultiSocket:
		blocks = o.Machine.SocketsForThreads(o.Threads)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
	}
	s := &Searcher{
		engine:  engine{workers: o.Threads},
		o:       o,
		threads: threads,
		ws:      make([]searchWorker, o.Threads),
		qs:      make([]*queue.ChunkQueue, blocks),
		limit:   make([]int64, blocks),
	}
	if err := s.bindOrdering(g, o.Ordering, o.Reordered); err != nil {
		return nil, err
	}
	part, err := topology.NewPartition(s.n, blocks)
	if err != nil {
		return nil, err
	}
	s.part = part
	for b := range s.qs {
		lo, hi := part.Range(b)
		s.qs[b] = queue.NewChunkQueue(max(1, hi-lo))
	}
	s.parents = newParents(s.n)
	if s.perm != nil {
		s.extParents = newParents(s.n)
	}
	switch o.Algorithm {
	case AlgSingleSocket:
		s.visited = bitmap.NewAtomic(s.n)
	case AlgDirectionOptimizing:
		s.visited = bitmap.NewAtomic(s.n)
		s.frontier = bitmap.NewAtomic(s.n)
		if s.gt, err = s.inEdges(); err != nil {
			return nil, err
		}
	case AlgMultiSocket:
		s.visited = bitmap.NewAtomic(s.n)
		s.channels = make([]*queue.Channel, blocks)
		s.prevChan = make([]queue.ChannelStats, blocks)
		for b := range s.channels {
			s.channels[b] = queue.NewChannel()
			if o.Trace {
				s.channels[b].EnableStats()
			}
		}
	}
	s.sched = sched.resolve(s.g)
	if s.workers > 1 {
		// With one worker there is nobody to share a split hub with, so
		// the board is skipped and over-budget vertices expand inline.
		s.hubs = newHubBoard(s.g, s.sched.budget)
	}
	for w := range s.ws {
		// A worker's claim mode follows the tier and
		// Options.DisableDoubleCheck; in the multi-socket tier it pops
		// from, pushes to and owns its socket's block.
		ws := &s.ws[w]
		ws.s = s
		ws.local = make([]uint32, 0, localBatch)
		switch {
		case o.Algorithm == AlgParallelSimple:
			ws.mode = claimParent
		case o.Algorithm == AlgMultiSocket:
			ws.mode = claimOwned
			ws.this = o.Machine.SocketOfThread(w, s.workers)
			ws.remote = make([][]queue.Tuple, blocks)
			for sck := range ws.remote {
				ws.remote[sck] = make([]queue.Tuple, 0, o.BatchSize)
			}
			ws.recvBuf = make([]queue.Tuple, o.BatchSize)
		case o.DisableDoubleCheck:
			ws.mode = claimAtomic
		default:
			ws.mode = claimChecked
		}
		ws.q = s.qs[ws.this]
		lo, hi := part.Range(ws.this)
		ws.lo, ws.size = uint32(lo), uint32(hi-lo)
	}
	s.start(o.PinThreads, s)
	return s, nil
}

// inEdges resolves the direction-optimizing tier's transpose in the
// session's id space.
func (s *Searcher) inEdges() (*graph.Graph, error) {
	gt := s.o.Transpose
	switch {
	case gt != nil && (gt.NumVertices() != s.n || gt.NumEdges() != s.g.NumEdges()):
		return nil, errors.New("core: Options.Transpose does not match the graph")
	case s.g.Symmetric():
		// A symmetric graph is its own transpose. s.g is the relabeled
		// graph when the session reorders, and Relabel keeps the flag, so
		// this holds in either id space and needs neither a transpose nor
		// a relabel.
		return s.g, nil
	case gt == nil:
		// s.g is already the relabeled graph when the session reorders,
		// so its transpose is too.
		return s.g.Transpose(), nil
	case s.perm != nil:
		// A caller-supplied transpose is in original id space; carry it
		// into the session's relabeled space.
		return gt.Relabel(s.perm)
	}
	return gt, nil
}

// clearShard is worker w's share of the parallel full-reset fallback:
// restore a word-aligned shard of the parent array, of the visited
// bitmap when the tier has one, and of the caller-id parent array when
// it is dirty.
func (s *Searcher) clearShard(w int) {
	lo, hi := s.wordShard(w)
	p := s.parents[lo:hi]
	for i := range p {
		p[i] = NoParent
	}
	if s.extDirty {
		// The full clear restores all of [0, n) across workers, so the
		// same contiguous shard of the caller-id array covers it too.
		e := s.extParents[lo:hi]
		for i := range e {
			e[i] = NoParent
		}
	}
	if s.visited != nil {
		s.visited.ResetWords(lo/64, (hi+63)/64)
	}
}

// clearTouched restores the entries of the touched vertices vs: their
// parent entries and visited words, and their caller-id parent entries
// when that array is dirty. Every set visited bit belongs to a
// touched vertex, and a translation writes extParents[inv[v]] for
// exactly the touched v, so this restores all three arrays.
func (s *Searcher) clearTouched(vs []uint32) {
	for _, v := range vs {
		s.parents[v] = NoParent
	}
	if s.visited != nil {
		for _, v := range vs {
			s.visited.ClearWordOf(int(v))
		}
	}
	if s.extDirty {
		for _, v := range vs {
			s.extParents[s.inv[v]] = NoParent
		}
	}
}

// resetState restores what the previous search dirtied, in O(touched)
// rather than O(n): the monotone queues hold exactly the vertices it
// reached, a cancelled search's partial set included, and every entry
// it or its translation wrote belongs to one of them, unless the
// engine's full clear takes over (fullClear). The pool is parked while
// this runs, so every clear is a plain store.
func (s *Searcher) resetState() {
	if !s.hasTouched {
		return
	}
	touched := 0
	for _, q := range s.qs {
		touched += q.Size()
	}
	if !s.fullClear(touched) {
		for _, q := range s.qs {
			s.clearTouched(q.Slice())
		}
	}
	for _, q := range s.qs {
		q.Reset()
	}
	if s.hubs != nil {
		// A cancelled search can unwind with half-claimed hub tasks
		// still posted; clear them so the next search starts clean.
		s.hubs.reset()
	}
	s.hasTouched, s.extDirty = false, false
}

// BFS runs one search from root with the session's configuration — the
// repeated-query fast path.
func (s *Searcher) BFS(root graph.Vertex) (*Result, error) {
	return s.Search(root, Query{})
}

// cancelCheckMask throttles the direct context poll: workers re-read
// ctx.Err() once every cancelCheckMask+1 checkpoints (a checkpoint is
// one claimed chunk, or one frontier vertex in the sequential tier);
// between polls the only cost is one atomic load of the shared flag.
// With chunks of at most chunkMax vertices that bounds the work between
// context observations to a few thousand vertices per worker.
const cancelCheckMask = 63

// aborted is the per-checkpoint cancellation probe, called from the hot
// loops of every tier with a worker-local checkpoint counter. It is
// two-level: the cross-worker flag on every call (so one worker's
// observation propagates at the next checkpoint), the context itself
// only every cancelCheckMask+1 calls.
func (s *Searcher) aborted(n *int) bool {
	if s.cancel.Load() {
		return true
	}
	*n++
	if *n&cancelCheckMask != 0 {
		return false
	}
	if s.ctx.Err() != nil {
		s.cancel.Store(true)
		return true
	}
	return false
}

// checkCancelAtBarrier is the level coordinator's probe, run at every
// level transition: levels too small to trip a worker checkpoint still
// observe cancellation within one level. It returns true — after
// setting both flags — when the search must unwind.
func (s *Searcher) checkCancelAtBarrier() bool {
	if s.cancel.Load() || s.ctx.Err() != nil {
		s.cancel.Store(true)
		s.done.Store(true)
		return true
	}
	return false
}

// Search runs one BFS from root, reusing the session's pooled state.
// The returned Result — including Parents, PerLevel and Trace — remains
// valid only until the next Search or Close on this Searcher; copy what
// must outlive it. Search must not be called concurrently with itself
// or Close.
func (s *Searcher) Search(root graph.Vertex, q Query) (*Result, error) {
	return s.SearchContext(context.Background(), root, q)
}

// SearchContext is Search with cancellation: when ctx is cancelled or
// its deadline passes, the search unwinds at the next cancellation
// point (a level barrier, or a chunk-pop checkpoint inside a level) and
// returns ctx.Err(). The abort leaves the session consistent — every
// vertex the aborted search claimed is on its touched list, so the next
// Search on this Searcher pays the usual O(touched) reset and returns
// exactly what a fresh session would. An uncancellable background
// context adds no per-search allocation or synchronization beyond
// Search.
func (s *Searcher) SearchContext(ctx context.Context, root graph.Vertex, q Query) (*Result, error) {
	return s.search(ctx, root, q, true, nil)
}

// SearchFunc is s.SearchContext for the serving pool. With withParents
// false the Result's Parents is nil, and a session with an active
// ordering skips translating the tree into caller ids (and so the next
// reset skips clearing that translation). A non-nil fn reads the
// Result of a completed search before the query's outcome is recorded:
// a panic in fn unwinds past the recording, so the caller that
// recovers it records the query's one outcome; fn's error is returned,
// and the recorded outcome stays the search's own. It is a function,
// not a method, because mcbfs.Searcher aliases Searcher, whose methods
// are public API.
func SearchFunc(ctx context.Context, s *Searcher, root graph.Vertex, q Query, withParents bool, fn func(*Result) error) (*Result, error) {
	return s.search(ctx, root, q, withParents, fn)
}

// search runs one query for SearchContext (with parents, no fn) or
// SearchFunc.
func (s *Searcher) search(ctx context.Context, root graph.Vertex, q Query, withParents bool, fn func(*Result) error) (*Result, error) {
	if s.closed {
		return nil, errors.New("core: Search on a closed Searcher")
	}
	if int(root) >= s.n {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, s.n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: nothing searched and no state dirtied. The
		// query still counts as cancelled, with no levels, no reached
		// vertices and no per-level record.
		s.o.Telemetry.RecordQuery(s.o.TelemetryShard, obs.QuerySample{
			Root: uint32(root), Start: time.Now(), Outcome: obs.OutcomeCancelled, Algorithm: s.o.Algorithm.String(),
		})
		return nil, err
	}
	maxLevels := s.o.MaxLevels
	if q.MaxLevels > 0 {
		maxLevels = q.MaxLevels
	} else if q.MaxLevels < 0 {
		maxLevels = 0
	}

	s.resetState()
	// The session is dirty from here on. Recording that before any
	// parent/bitmap write means an abort on any path below still
	// triggers a reset of the partial state on the next query —
	// including the root's seeded parent entry, which is why the root
	// is published on its queue before that entry is written.
	s.hasTouched = true
	s.ctx = ctx
	s.cancel.Store(false)
	s.coll = s.obsCollector()
	s.maxLevels = maxLevels
	s.levels = 0
	s.done.Store(false)
	s.bottomUp.Store(false) // every tier's first level is top-down

	// The search itself runs in the session's id space: with an active
	// ordering the root is translated in here and the parent tree
	// translated back out after the search; without one iroot == root.
	iroot := root
	if s.perm != nil {
		iroot = s.perm[root]
	}

	// Seed the root: resetState emptied the queues and the pool is
	// parked, so the root is its block's queue's one append, on the
	// single-producer path, published before its parent entry is
	// written.
	rootQ := s.qs[s.part.DetermineSocket(uint32(iroot))]
	rootQ.Publish(rootQ.Append(0, uint32(iroot)))
	s.parents[iroot] = uint32(iroot)

	start := time.Now()
	var edges, reached int64
	if s.o.Algorithm == AlgSequential {
		// The serial baseline runs inline on the caller's goroutine.
		edges, reached = s.sequentialSearch()
	} else {
		s.prevLimit = 0
		for i, q := range s.qs {
			s.limit[i] = int64(q.Size())
		}
		if s.o.Trace {
			// Channel counters are cumulative across searches;
			// re-baseline the per-level delta tracking.
			for i, c := range s.channels {
				s.prevChan[i] = c.Stats()
				c.ResetHighWater()
			}
		}
		if s.visited != nil {
			s.visited.Set(int(iroot))
		}
		s.runJob(jobSearch)
		for w := range s.ws {
			edges += s.ws[w].edges
			reached += s.ws[w].reached
		}
		reached++ // workers count discoveries; the root is seeded
	}
	dur := time.Since(start)
	if s.cancel.Load() {
		// The partial tree is not a BFS tree of anything; expose only
		// the error. State reset happens lazily on the next query.
		s.recordQuery(root, start, dur, reached, edges, obs.OutcomeCancelled)
		return nil, ctx.Err()
	}

	var resultParents []uint32
	var perLevel []obs.LevelBreakdown
	if s.o.Instrument {
		perLevel = s.coll.Levels()
	}
	switch {
	case !withParents:
	case s.perm != nil:
		s.extDirty = true
		s.translateParents()
		resultParents = s.extParents
	default:
		resultParents = s.parents
	}
	s.res = Result{
		Parents:        resultParents,
		Root:           root,
		Reached:        reached,
		EdgesTraversed: edges,
		Levels:         s.levels,
		Duration:       dur,
		Algorithm:      s.o.Algorithm,
		Threads:        s.threads,
		PerLevel:       perLevel,
		Trace:          s.coll.Finish(),
	}
	var err error
	if fn != nil {
		err = fn(&s.res)
	}
	s.recordQuery(root, start, dur, reached, edges, obs.OutcomeOK)
	return &s.res, err
}

// translateParents projects the parent tree of the search that just
// finished from the session's relabeled id space back into caller ids,
// walking the monotone queues — exactly the reached set — so the cost
// is O(touched), not O(n). The entries written here are cleared by the
// next resetState, which walks the same queues (the caller sets
// extDirty first).
func (s *Searcher) translateParents() {
	inv, parents, ext := s.inv, s.parents, s.extParents
	for _, q := range s.qs {
		for _, v := range q.Slice() {
			ext[inv[v]] = uint32(inv[parents[v]])
		}
	}
}

// recordQuery hands one finished (or cancelled) search to the session's
// telemetry hub. The per-level records are the collector's, borrowed:
// the hub copies them only when the query is slow enough to capture.
func (s *Searcher) recordQuery(root graph.Vertex, start time.Time, dur time.Duration, reached, edges int64, outcome obs.Outcome) {
	if s.o.Telemetry == nil {
		return
	}
	s.o.Telemetry.RecordQuery(s.o.TelemetryShard, obs.QuerySample{
		Root:      uint32(root),
		Start:     start,
		Duration:  dur,
		Levels:    s.levels,
		Reached:   reached,
		Edges:     edges,
		Outcome:   outcome,
		Algorithm: s.o.Algorithm.String(),
		PerLevel:  s.coll.Levels(),
	})
}

// obsCollector readies the session's collector for one search, or
// returns nil when nothing observes the run — the nil pointer is what
// keeps the hot path at a handful of predictable nil-checks per level.
func (s *Searcher) obsCollector() *obs.Collector {
	o := &s.o
	if !o.Instrument && !o.Trace && o.Telemetry == nil {
		return nil
	}
	s.collector.Reset(obs.Config{
		Workers:   s.threads,
		Sockets:   len(s.qs),
		Algorithm: o.Algorithm.String(),
		Trace:     o.Trace,
	})
	return &s.collector
}
