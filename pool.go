package mcbfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// Pool errors. ErrPoolSaturated wraps the context error that expired
// while waiting, so errors.Is matches both it and
// context.DeadlineExceeded / context.Canceled.
var (
	// ErrPoolSaturated is returned by Query when every Searcher stayed
	// borrowed until the caller's context expired — the admission-control
	// signal to shed load.
	ErrPoolSaturated = errors.New("mcbfs: pool saturated")
	// ErrPoolClosed is returned by Query once Close has begun.
	ErrPoolClosed = errors.New("mcbfs: pool closed")
)

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Size is the number of warm Searchers held by the pool, i.e. the
	// maximum number of queries in flight at once; further queries wait
	// (bounded by their context) and are shed with ErrPoolSaturated when
	// the wait outlives the context. 0 sizes the pool so that the
	// Searchers' combined worker count roughly matches GOMAXPROCS:
	// max(1, GOMAXPROCS / per-Searcher threads).
	Size int
	// Search configures every Searcher in the pool, exactly as for
	// NewSearcher. Note Threads is per Searcher: a pool of K Searchers
	// runs up to K*Threads workers when fully loaded. Its Transpose and
	// Reordered describe the graph NewPool is given and serve only that
	// epoch: a swapped-in graph gets its ordering recomputed and, when
	// Transpose is set, its own in-edges (none for a graph flagged
	// Symmetric, which is its own transpose).
	Search Options
	// DefaultTimeout, when positive, bounds every query whose context
	// carries no deadline of its own: the query — waiting for a Searcher
	// and searching — is abandoned with context.DeadlineExceeded when it
	// exceeds the timeout. Contexts that already have a deadline are
	// used as-is. Queries carrying a deadline (from either source) pay
	// one context allocation; deadline-free queries on a deadline-free
	// pool stay allocation-free.
	DefaultTimeout time.Duration
	// Metrics, when non-nil, is the counter set of the pool's telemetry
	// hub: the hub counts batch traversals and hot-swaps into it, and
	// the pool adds SwapDegraded, IngestedEdges, SnapshotsDrained and
	// ReorderNs. With Telemetry nil, setting Metrics builds a hub over
	// it (one histogram shard per Searcher), so the pool also records
	// per-query telemetry. With Telemetry set, Metrics must be nil or
	// Telemetry.Metrics(); NewPool fails otherwise. Query outcomes are
	// read from the hub (Telemetry.OutcomeCount).
	Metrics *Metrics
	// Telemetry, when non-nil, is the serving telemetry hub every query
	// reports to: latency into a per-Searcher-sharded histogram, its one
	// outcome into the per-outcome totals and rolling-window counters,
	// and slow queries — with per-level phase breakdowns — into the
	// flight recorder. Share one hub across pools to aggregate them, or
	// leave nil and set Metrics or ServeMonitor to have the pool build
	// its own.
	Telemetry *Telemetry
	// ServeMonitor, when non-empty, is a TCP listen address (e.g.
	// ":6060" or "127.0.0.1:0") on which the pool serves its telemetry
	// over HTTP: Prometheus text format at /metrics and a JSON status
	// page at /debug/bfs. The bound address is available from
	// Pool.MonitorAddr; the server shuts down with Close. When
	// Telemetry is nil, setting ServeMonitor creates a hub (counting
	// into Metrics, one histogram shard per Searcher) automatically.
	ServeMonitor string
	// Batching, when enabled (Lanes > 0), coalesces concurrently
	// admitted default-configuration queries into shared MS-BFS batch
	// traversals instead of borrowing per-query Searchers: up to Lanes
	// queries ride one pass over the adjacency. Queries with a depth
	// override (Search with a non-zero Query) and QueryFunc calls still
	// use the Searcher pool. Each runner runs a batch on its own MS-BFS
	// session in the epoch serving when the batch starts, so a Swap
	// reaches batched queries at the next batch. The batch engine always
	// searches to full depth, so NewPool rejects Batching together with a
	// non-zero Search.MaxLevels rather than answer batched queries
	// unbounded.
	Batching BatchingOptions
	// RebuildThreshold, when positive, turns Ingest into a
	// self-rebuilding pipeline: once at least that many edges are
	// buffered, a background goroutine merges them with the serving
	// graph through the parallel CSR builder and hot-swaps the result
	// in (exactly as an explicit Rebuild would). 0 leaves rebuilds to
	// explicit Rebuild / Swap calls.
	RebuildThreshold int
}

// BatchingOptions configures the Pool's MS-BFS batching mode.
type BatchingOptions struct {
	// Lanes is the maximum queries coalesced into one batch traversal,
	// 1..64. 0 disables batching.
	Lanes int
	// Window bounds how long a batch runner waits for more queries
	// after admitting its first: the latency each query may pay to
	// improve coalescing under light load (under heavy load batches
	// fill instantly and the window never expires). 0 means 100µs.
	Window time.Duration
	// Runners is the number of concurrent batch traversals (each epoch
	// holds one BatchSearcher with Search.Threads workers per runner).
	// 0 means 1. Admission buffers another Lanes*Runners queries beyond
	// those the runners carry; queries beyond that shed with
	// ErrPoolSaturated when their context expires first.
	Runners int
}

func (o BatchingOptions) withDefaults() BatchingOptions {
	if o.Window <= 0 {
		o.Window = 100 * time.Microsecond
	}
	if o.Runners <= 0 {
		o.Runners = 1
	}
	return o
}

// Pool is a fixed-size pool of warm Searchers over one graph, for
// serving concurrent query traffic: each Query borrows a Searcher,
// runs one cancellable search on it, and returns it. Admission is
// bounded — when all Searchers are busy, Query waits only as long as
// its context allows and then sheds with ErrPoolSaturated — and a
// query that panics poisons only its own Searcher, which the pool
// discards and rebuilds.
//
// The pool serves one graph epoch at a time (see Swap), and an epoch
// owns every session that serves it: its Searchers and, with Batching,
// one MS-BFS session per batch runner. A Searcher borrow and a batch
// each pin the serving epoch until they finish, so a retired epoch's
// graph, relabeled CSR and sessions are freed as soon as its last pin
// is released.
//
// The Result returned by Query and Search is self-contained scalars
// only: Parents, PerLevel and Trace are nil, because the borrowed
// Searcher returns to the pool before Query does and the next borrower
// would overwrite them. Use QueryFunc to read the full Result —
// including Parents — while the borrow is still held.
type Pool struct {
	opt PoolOptions
	// size is the number of Searcher slots every snapshot is built with;
	// ordering is the effective vertex ordering each snapshot is
	// relabeled under (from Search.Reordered's Order when one was
	// supplied, else Search.Ordering), both fixed at construction.
	size     int
	ordering graph.Ordering

	// snap is the serving snapshot: the graph epoch new queries and
	// batches pin. Swap publishes a successor here and retires the old
	// one; a retired snapshot drains — its sessions are closed — only
	// after its last pin is released (see poolSnapshot).
	snap atomic.Pointer[poolSnapshot]
	// swapMu serializes snapshot transitions (Swap, Rebuild, Close), so
	// epochs advance one at a time and a Rebuild's read-merge-swap of
	// the serving graph is atomic against concurrent Swaps.
	swapMu sync.Mutex
	// draining counts retired snapshots whose drain has not finished;
	// drains joins them all at Close.
	draining atomic.Int64
	drains   sync.WaitGroup

	// closing is closed by Close so blocked acquirers fail over to
	// ErrPoolClosed.
	closing chan struct{}

	mu     sync.Mutex
	closed bool
	// broken records a rebuild failure after a panic — from then on the
	// pool serves errors rather than hanging callers on a slot that will
	// never be refilled. closeErr collects the first session Close
	// error from any snapshot drain, for Close to return.
	broken   error
	closeErr error

	// Ingest's edge buffer, merged into the serving graph by Rebuild.
	// rebuilding single-flights the RebuildThreshold background rebuild.
	pendMu     sync.Mutex
	pendSrcs   []Vertex
	pendDsts   []Vertex
	rebuilding atomic.Bool

	// tel is the resolved telemetry hub (PoolOptions.Telemetry, or one
	// the pool built for Metrics or ServeMonitor), nil when all three
	// are unset; monitor is the HTTP server bound to monitorAddr, nil
	// and empty without ServeMonitor.
	tel         *obs.Telemetry
	monitor     *http.Server
	monitorAddr string

	// Batching mode (nil/zero when Batching.Lanes == 0): queries
	// enqueue batchReqs on batchCh; runner goroutines coalesce them
	// into MS-BFS traversals. batching is resolved before the first
	// snapshot, which builds one session per runner from it. replies is
	// the free-list of reply channels (a buffered channel of channels
	// rather than a sync.Pool, so the warm path stays allocation-free
	// regardless of GC timing). batchProducers tracks queries between
	// admission registration and reply receipt; Close waits for it
	// before closing batchStop, so a runner that sees batchStop knows no
	// sender can still be in flight and the final drain cannot strand
	// anyone.
	batching       BatchingOptions
	batchCh        chan batchReq
	batchStop      chan struct{}
	batchWG        sync.WaitGroup
	batchProducers sync.WaitGroup
	replies        chan chan batchReply
}

// batchReq is one query handed to the batch runners.
type batchReq struct {
	root  Vertex
	ctx   context.Context
	reply chan batchReply
}

// batchReply is the per-lane outcome delivered back to the querier.
type batchReply struct {
	res Result
	err error
}

// NewPool builds a pool of warm Searchers over g. All Searchers are
// created eagerly so the first queries pay no setup.
func NewPool(g *Graph, opt PoolOptions) (*Pool, error) {
	if g == nil {
		return nil, errors.New("mcbfs: nil graph")
	}
	if opt.Batching.Lanes > 0 && opt.Search.MaxLevels != 0 {
		return nil, errors.New("mcbfs: Batching cannot honor Search.MaxLevels: batched queries always search to full depth")
	}
	if opt.Batching.Lanes > core.MaxLanes {
		return nil, fmt.Errorf("mcbfs: Batching.Lanes %d exceeds %d", opt.Batching.Lanes, core.MaxLanes)
	}
	size := opt.Size
	if size <= 0 {
		perSearcher := opt.Search.Threads
		if perSearcher <= 0 {
			perSearcher = runtime.GOMAXPROCS(0)
		}
		size = runtime.GOMAXPROCS(0) / perSearcher
		if size < 1 {
			size = 1
		}
	}
	p := &Pool{
		opt:      opt,
		size:     size,
		ordering: opt.Search.Ordering,
		closing:  make(chan struct{}),
	}
	if rd := opt.Search.Reordered; rd != nil {
		p.ordering = rd.Order
	}
	if opt.Batching.Lanes > 0 {
		p.batching = opt.Batching.withDefaults()
	}
	p.tel = opt.Telemetry
	switch {
	case p.tel == nil && (opt.Metrics != nil || opt.ServeMonitor != ""):
		p.tel = obs.NewTelemetry(obs.TelemetryOptions{Shards: size, Metrics: opt.Metrics})
	case opt.Metrics != nil && opt.Metrics != p.tel.Metrics():
		return nil, errors.New("mcbfs: PoolOptions.Metrics must be nil or PoolOptions.Telemetry.Metrics()")
	}
	if p.tel != nil {
		p.tel.SetPoolInfo(func() obs.PoolInfo {
			sn := p.snap.Load()
			return obs.PoolInfo{
				SearcherSlots: cap(sn.free),
				SearchersBusy: cap(sn.free) - len(sn.free),
				BatchLanes:    p.batching.Lanes,
				BatchRunners:  p.batching.Runners,
			}
		})
		p.tel.SetDrainGauge(p.Draining)
	}
	sn, err := p.buildSnapshot(g, 1, opt.Search.Reordered)
	if err != nil {
		return nil, err
	}
	p.drains.Add(1)
	p.snap.Store(sn)
	if p.tel != nil {
		p.tel.SetEpoch(1)
	}
	if opt.ServeMonitor != "" {
		ln, err := net.Listen("tcp", opt.ServeMonitor)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("mcbfs: monitor listen on %q: %w", opt.ServeMonitor, err)
		}
		p.monitorAddr = ln.Addr().String()
		p.monitor = &http.Server{Handler: p.tel.Handler()}
		go func() { _ = p.monitor.Serve(ln) }()
	}
	if p.batching.Lanes > 0 {
		p.startBatching()
	}
	return p, nil
}

// startBatching opens the admission channel and the reply free-list and
// starts the runner goroutines; their sessions live in the snapshots.
func (p *Pool) startBatching() {
	b := p.batching
	// The admission queue holds one more full batch per runner beyond
	// the batches in flight.
	capacity := b.Lanes * b.Runners
	p.batchCh = make(chan batchReq, capacity)
	p.batchStop = make(chan struct{})
	// Free-list sized to every reply channel the pool can have in
	// flight at once: queued + being-served requests.
	nReplies := 2 * capacity
	p.replies = make(chan chan batchReply, nReplies)
	for i := 0; i < nReplies; i++ {
		p.replies <- make(chan batchReply, 1)
	}
	for i := 0; i < b.Runners; i++ {
		p.batchWG.Add(1)
		go p.batchRunner(i)
	}
}

// newBatchSearcher builds one runner's MS-BFS session over a given
// snapshot's graph, wired to the pool's telemetry hub. The runner
// returns only each lane's scalars (LaneResult), never a tree, so the
// session records no parents: that saves n×Lanes×4 bytes per runner in
// every epoch and at every panic rebuild, and the parent stores in
// every traversal.
func (p *Pool) newBatchSearcher(sn *poolSnapshot, runner int) (*core.BatchSearcher, error) {
	return core.NewBatchSearcherWithoutParents(sn.g, core.BatchOptions{
		Width:          p.batching.Lanes,
		Threads:        p.opt.Search.Threads,
		PinThreads:     p.opt.Search.PinThreads,
		Telemetry:      p.tel,
		TelemetryShard: runner,
		Ordering:       sn.searchOpt.Ordering,
		Reordered:      sn.searchOpt.Reordered,
	})
}

// Telemetry returns the pool's telemetry hub: PoolOptions.Telemetry if
// one was supplied, else the hub the pool built because Metrics or
// ServeMonitor was set. It is nil only when all three are unset.
func (p *Pool) Telemetry() *Telemetry { return p.tel }

// MonitorAddr returns the bound address of the pool's monitoring HTTP
// server ("" when ServeMonitor was not set) — useful with ":0" to
// discover the kernel-assigned port.
func (p *Pool) MonitorAddr() string { return p.monitorAddr }

// Size returns the pool's total serving capacity: Searcher slots plus
// batch lanes across all runners (the maximum queries in flight at
// once). Use Slots for the two components separately.
func (p *Pool) Size() int {
	searchers, lanes := p.Slots()
	return searchers + lanes
}

// Slots reports the pool's serving capacity by kind: the number of
// warm Searcher slots (per-query borrows) and the number of MS-BFS
// batch lanes across all runners (0 when batching is off).
func (p *Pool) Slots() (searchers, batchLanes int) {
	return p.size, p.batching.Lanes * p.batching.Runners
}

// Epoch returns the serving snapshot's epoch: 1 for the graph the pool
// was built with, incremented by each successful Swap (including the
// ones Rebuild and threshold-triggered ingests perform).
func (p *Pool) Epoch() int64 { return p.snap.Load().epoch }

// Graph returns the graph the serving snapshot answers queries on.
// After a Swap this is the swapped-in graph even while older epochs
// are still draining in-flight queries.
func (p *Pool) Graph() *Graph { return p.snap.Load().g }

// Draining reports how many retired snapshots are still draining:
// superseded epochs holding their sessions open for their last
// in-flight queries and batches. 0 means every past epoch has fully
// torn down.
func (p *Pool) Draining() int { return int(p.draining.Load()) }

// Pending reports how many ingested edges are buffered awaiting the
// next Rebuild.
func (p *Pool) Pending() int {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	return len(p.pendSrcs)
}

// Query runs one BFS from root with the pool's session configuration.
// See Pool's type documentation for what the returned Result contains.
func (p *Pool) Query(ctx context.Context, root Vertex) (Result, error) {
	return p.Search(ctx, root, Query{})
}

// Search is Query with a per-query depth bound, exactly as for
// Searcher.Search. The Result is copied out of
// the Searcher before it returns to the pool, with the pooled slices
// (Parents, PerLevel, Trace) detached; since Parents is dropped, a pool
// with an active ordering does not translate the parent tree into
// caller ids either (use QueryFunc to read it). A warm deadline-free
// query performs no heap allocation.
//
// With Batching enabled, default-configuration queries (zero Query) are
// coalesced into shared MS-BFS traversals; depth-bounded queries still
// borrow a Searcher.
func (p *Pool) Search(ctx context.Context, root Vertex, q Query) (Result, error) {
	ctx, cancel := p.queryCtx(ctx)
	defer cancel()
	if p.batchCh != nil && q == (Query{}) {
		return p.batchedSearch(ctx, root)
	}
	var res Result
	err := p.borrow(ctx, root, func(s *core.Searcher) error {
		r, err := core.SearchFunc(ctx, s, root, q, false, nil)
		if r != nil {
			res = *r
			res.Parents, res.PerLevel, res.Trace = nil, nil, nil
		}
		return err
	})
	return res, err
}

// QueryFunc runs one BFS from root and invokes fn with the full Result
// — Parents, PerLevel and Trace included — while the borrowed Searcher
// is still held, so the pointers are safe to read for the duration of
// fn (and only then; copy what must outlive it). fn's error is
// returned as the query's error, while the recorded outcome stays the
// search's own. A panic in fn is treated like a panicking search: the
// Searcher is discarded and rebuilt, and the query records one panic
// outcome.
func (p *Pool) QueryFunc(ctx context.Context, root Vertex, q Query, fn func(*Result) error) error {
	ctx, cancel := p.queryCtx(ctx)
	defer cancel()
	return p.borrow(ctx, root, func(s *core.Searcher) error {
		_, err := core.SearchFunc(ctx, s, root, q, true, fn)
		return err
	})
}

// queryCtx resolves a query's context for Search and QueryFunc: nil
// means Background, and a context without a deadline of its own is
// bounded by DefaultTimeout. The caller defers the returned cancel.
func (p *Pool) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.opt.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, p.opt.DefaultTimeout)
		}
	}
	return ctx, func() {}
}

// borrow runs one query on a Searcher borrowed from the serving
// snapshot, the one path Search and QueryFunc share. run executes
// under one recover scope: a panic becomes the query's error and its
// one recorded outcome (OutcomePanic), and the Searcher is discarded
// and rebuilt; otherwise the Searcher goes back to the snapshot. Either
// way the borrow's pin is released last. The session records completed
// and cancelled queries itself, and noteShed the ones refused at
// admission, so each query records exactly one outcome.
func (p *Pool) borrow(ctx context.Context, root Vertex, run func(*core.Searcher) error) (err error) {
	qstart := p.telNow()
	sn, s, err := p.acquire(ctx)
	if err != nil {
		p.noteShed(qstart, err)
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mcbfs: query from root %d panicked: %v", root, r)
			p.notePanic(root, qstart)
			p.rebuild(sn, s)
		} else {
			sn.free <- s
		}
		sn.release(p)
	}()
	return run(s)
}

// acquire borrows a Searcher from the serving snapshot: the fast path
// takes an idle one without blocking; the slow path waits until one
// frees up, the snapshot is superseded by a Swap (retry on the new
// epoch), the pool closes, or the caller's context expires (shed).
// The returned snapshot holds the borrow's pin; the caller must return
// the Searcher to sn.free and then call sn.release(p). Shed accounting
// is centralized in noteShed, which every admission path calls on its
// error.
func (p *Pool) acquire(ctx context.Context) (*poolSnapshot, *core.Searcher, error) {
	for {
		sn, err := p.pin()
		if err != nil {
			return nil, nil, err
		}
		select {
		case s := <-sn.free:
			return sn, s, nil
		default:
		}
		select {
		case s := <-sn.free:
			return sn, s, nil
		case <-sn.retiredCh:
			// Swapped out from under us mid-wait: move to the new epoch
			// rather than queueing on Searchers that are being torn down.
			sn.release(p)
			continue
		case <-p.closing:
			sn.release(p)
			return nil, nil, ErrPoolClosed
		case <-ctx.Done():
			sn.release(p)
			return nil, nil, fmt.Errorf("%w: %w", ErrPoolSaturated, ctx.Err())
		}
	}
}

// pin takes one reference on the serving snapshot for a Searcher borrow
// or a batch, or returns the pool's terminal error. The reference is
// added first and retirement re-checked after: a Swap between the Load
// and the Add may already have begun draining, and a drained snapshot's
// sessions are closed. The stale reference is released (possibly
// re-triggering the Once-guarded drain) and the loop retries on the new
// epoch. The caller ends the pin with sn.release(p).
func (p *Pool) pin() (*poolSnapshot, error) {
	for {
		if err := p.err(); err != nil {
			return nil, err
		}
		sn := p.snap.Load()
		sn.refs.Add(1)
		if !sn.retired.Load() {
			return sn, nil
		}
		sn.release(p)
	}
}

// batchedSearch is the batching-mode query path: register as a
// producer, enqueue on the admission channel (shedding when the queue
// stays full past the caller's context), and wait for the per-lane
// reply. A warm query allocates nothing: the request is a channel send
// of a value, and the reply channel comes from the free-list.
func (p *Pool) batchedSearch(ctx context.Context, root Vertex) (Result, error) {
	qstart := p.telNow()
	// Producer registration orders against Close: after closed is set
	// no new producer registers, so batchProducers.Wait() in Close
	// covers every request that could reach the channel.
	p.mu.Lock()
	if err := p.errLocked(); err != nil {
		p.mu.Unlock()
		return Result{}, err
	}
	p.batchProducers.Add(1)
	p.mu.Unlock()
	defer p.batchProducers.Done()

	// Free-list exhaustion means more callers than the pool can have in
	// flight — the same saturation signal as a full admission queue.
	var reply chan batchReply
	select {
	case reply = <-p.replies:
	default:
		select {
		case reply = <-p.replies:
		case <-p.closing:
			return Result{}, ErrPoolClosed
		case <-ctx.Done():
			err := fmt.Errorf("%w: %w", ErrPoolSaturated, ctx.Err())
			p.noteShed(qstart, err)
			return Result{}, err
		}
	}
	req := batchReq{root: root, ctx: ctx, reply: reply}
	select {
	case p.batchCh <- req:
	default:
		select {
		case p.batchCh <- req:
		case <-p.closing:
			p.replies <- reply
			return Result{}, ErrPoolClosed
		case <-ctx.Done():
			p.replies <- reply
			err := fmt.Errorf("%w: %w", ErrPoolSaturated, ctx.Err())
			p.noteShed(qstart, err)
			return Result{}, err
		}
	}
	// Admitted: the runner owns the request and will always reply, so
	// the wait is unconditional — abandoning it would let the next
	// borrower of this reply channel read our lane's result.
	r := <-reply
	p.replies <- reply
	return r.res, r.err
}

// batchRunner is one batching-mode serving loop: block for the first
// query, hold the admission window open to coalesce more (up to the
// lane budget), pin the serving snapshot, run the shared MS-BFS
// traversal on this runner's session in it, and release the pin. Once
// the pool is closed or broken, pin fails and every lane gets that
// error, until Close's final drain.
func (p *Pool) batchRunner(runner int) {
	defer p.batchWG.Done()
	lanes := p.batching.Lanes
	window := p.batching.Window
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	reqs := make([]batchReq, 0, lanes)
	roots := make([]Vertex, 0, lanes)
	ctxs := make([]context.Context, 0, lanes)
	for {
		reqs = reqs[:0]
		select {
		case req := <-p.batchCh:
			reqs = append(reqs, req)
		case <-p.batchStop:
			// Close has seen every producer finish; anything still
			// queued was abandoned by a shutdown race and is failed
			// here, then the drain is final.
			for {
				select {
				case req := <-p.batchCh:
					req.reply <- batchReply{err: ErrPoolClosed}
				default:
					return
				}
			}
		}
		// Admission window: wait up to window for the batch to fill.
		// Under load the lane budget is hit first and the timer is
		// simply stopped; idle runners pay one timer sleep per batch.
		if lanes > 1 {
			timer.Reset(window)
		collect:
			for len(reqs) < lanes {
				select {
				case req := <-p.batchCh:
					reqs = append(reqs, req)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}

		sn, err := p.pin()
		if err != nil {
			for _, req := range reqs {
				req.reply <- batchReply{err: err}
			}
			continue
		}
		// A root admitted before a Swap shrank the graph fails its own
		// lane, with the error a Searcher-slot query gets and no
		// recorded outcome; the other lanes run.
		n := sn.g.NumVertices()
		kept := reqs[:0]
		roots = roots[:0]
		ctxs = ctxs[:0]
		for _, req := range reqs {
			if int(req.root) >= n {
				req.reply <- batchReply{err: fmt.Errorf("core: root %d out of range [0,%d)", req.root, n)}
				continue
			}
			kept = append(kept, req)
			roots = append(roots, req.root)
			ctxs = append(ctxs, req.ctx)
		}
		if len(kept) > 0 {
			p.runBatch(sn, runner, kept, roots, ctxs)
		}
		sn.release(p)
	}
}

// runBatch runs one batch on the runner's session in the pinned
// snapshot and replies to every lane. A panicking traversal fails every
// lane and poisons only that session, which rebuildBatch replaces.
func (p *Pool) runBatch(sn *poolSnapshot, runner int, reqs []batchReq, roots []Vertex, ctxs []context.Context) {
	bstart := p.telNow()
	res, err, panicked := p.batchOn(sn.batch[runner], roots, ctxs)
	if panicked {
		// Every lane's panic outcome is recorded before its reply, so a
		// caller that sees the error also sees the count.
		for _, req := range reqs {
			p.notePanic(req.root, bstart)
			req.reply <- batchReply{err: err}
		}
		p.rebuildBatch(sn, runner)
		return
	}
	if err != nil {
		// SearchLanes only errors as a whole on invalid input or a dead
		// batch context; neither occurs here (every root was checked
		// against this session's graph, and the batch context is
		// Background). Fail the lanes anyway rather than dropping them.
		for _, req := range reqs {
			req.reply <- batchReply{err: err}
		}
		return
	}
	for l, req := range reqs {
		if lerr := res.Err[l]; lerr != nil {
			req.reply <- batchReply{err: lerr}
			continue
		}
		req.reply <- batchReply{res: res.LaneResult(l)}
	}
}

// batchOn runs one batch traversal under a recover scope.
func (p *Pool) batchOn(bs *core.BatchSearcher, roots []Vertex, ctxs []context.Context) (res *core.BatchResult, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			res = nil
			err = fmt.Errorf("mcbfs: batch of %d queries panicked: %v", len(roots), r)
		}
	}()
	res, err = bs.SearchLanes(context.Background(), roots, ctxs)
	return res, err, false
}

// rebuildBatch replaces a runner's session after a panic, as rebuild
// does for a Searcher: the replacement takes the runner's slot in the
// pinned snapshot. If that snapshot was retired meanwhile, the slot
// stays nil, because no batch can pin a retired epoch again and the
// drain skips it. If the rebuild fails the pool is marked broken, and
// from then on pin answers every batch with that error.
func (p *Pool) rebuildBatch(sn *poolSnapshot, runner int) {
	closeDetached(sn.batch[runner])
	sn.batch[runner] = nil
	if sn.retired.Load() {
		return
	}
	bs, err := p.newBatchSearcher(sn, runner)
	if err != nil {
		p.mu.Lock()
		p.broken = fmt.Errorf("mcbfs: rebuilding batch searcher after panic: %w", err)
		p.mu.Unlock()
		return
	}
	sn.batch[runner] = bs
}

// telNow stamps the query's admission time, but only when a telemetry
// hub will consume it — the no-telemetry fast path stays free of the
// extra clock read.
func (p *Pool) telNow() time.Time {
	if p.tel == nil {
		return time.Time{}
	}
	return time.Now()
}

// noteShed records an admission failure as the query's one outcome
// (OutcomeShed, which feeds the /metrics error-rate windows) before the
// caller returns ErrPoolSaturated. Every admission path, Searcher slot
// and batching alike, calls it on its error. Completed and cancelled
// queries are recorded by the sessions themselves, so only the
// saturated path is noted here; the recorded latency is the time the
// query spent waiting before it was refused.
func (p *Pool) noteShed(qstart time.Time, err error) {
	if p.tel != nil && errors.Is(err, ErrPoolSaturated) {
		p.tel.RecordShed(qstart, time.Since(qstart))
	}
}

// notePanic records a panicking query's one outcome (OutcomePanic). The
// session never reached its own recording point, so the pool records
// the sample — scalars only, on shard 0 (panics are rare enough that
// shard contention is irrelevant).
func (p *Pool) notePanic(root Vertex, qstart time.Time) {
	if p.tel == nil {
		return
	}
	p.tel.RecordQuery(0, obs.QuerySample{
		Root:     uint32(root),
		Start:    qstart,
		Duration: time.Since(qstart),
		Outcome:  obs.OutcomePanic,
	})
}

// rebuild replaces a Searcher whose query panicked: the old one is
// closed with closeDetached and a fresh Searcher takes the slot in the
// snapshot that owned it. If that snapshot was retired while the query
// was in flight, the slot is simply forgotten (the drain closes one
// Searcher fewer): no query can ever borrow from a retired epoch again.
// If the rebuild itself fails the pool is marked broken rather than
// left to hang callers on a slot that will never be refilled. The
// caller still holds the borrow's pin, so a retired snapshot cannot
// begin draining before the replacement is parked.
func (p *Pool) rebuild(sn *poolSnapshot, old *core.Searcher) {
	closeDetached(old)
	if sn.retired.Load() {
		return
	}
	s, err := core.NewSearcher(sn.g, sn.searchOpt)
	if err != nil {
		p.mu.Lock()
		p.broken = fmt.Errorf("mcbfs: rebuilding Searcher after panic: %w", err)
		p.mu.Unlock()
		return
	}
	sn.free <- s
}

// closeDetached closes a session whose search panicked, on a
// best-effort basis: its worker protocol may be corrupted mid-job, so
// the close runs detached and its own panic is swallowed.
func closeDetached(s io.Closer) {
	go func() {
		defer func() { _ = recover() }()
		_ = s.Close()
	}()
}

// err returns the pool's terminal state, if any.
func (p *Pool) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errLocked()
}

// errLocked is err with p.mu already held.
func (p *Pool) errLocked() error {
	if p.closed {
		return ErrPoolClosed
	}
	return p.broken
}

// Close shuts the pool down: new queries fail with ErrPoolClosed,
// waiting acquirers are released, the serving snapshot is retired, and
// Close blocks until every snapshot — current and still-draining past
// epochs — has drained, closing each session. Close is idempotent.
func (p *Pool) Close() error {
	p.swapMu.Lock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.swapMu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.closing)
	// Retiring the serving snapshot starts its drain as soon as the last
	// in-flight borrow or batch releases its pin; past epochs are
	// already retired.
	p.snap.Load().retire(p)
	p.swapMu.Unlock()
	if p.monitor != nil {
		_ = p.monitor.Close()
	}
	p.drains.Wait()
	if p.batchCh != nil {
		// Every producer registered before closed was set; once they
		// all return (replied, shed, or released by closing), no sender
		// can touch batchCh again and the runners' final drain is safe.
		p.batchProducers.Wait()
		close(p.batchStop)
		p.batchWG.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closeErr
}
