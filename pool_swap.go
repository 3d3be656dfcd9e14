package mcbfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// poolSnapshot is one graph epoch of a Pool: an immutable CSR, the
// resolved search configuration (including the ordering recomputed for
// this graph), and the warm Searchers built over it. The Pool serves
// from exactly one snapshot at a time; Swap publishes a successor and
// retires the old one, which keeps answering its in-flight queries and
// tears down only after the last borrower returns.
//
// Lifecycle is reference-counted: refs starts at 1 (the Pool's own
// reference while the snapshot is current) and each borrow — acquire
// through release — holds one more. retire drops the Pool's reference;
// whoever drops refs to 0 with the snapshot retired triggers the drain
// exactly once. A borrower always returns its Searcher to free before
// releasing its reference, so by the time the drain runs every live
// Searcher is parked in free and can be closed without waiting.
type poolSnapshot struct {
	// epoch numbers snapshots from 1; each successful Swap increments.
	epoch int64
	g     *Graph
	// searchOpt is the resolved per-Searcher configuration for this
	// epoch: Pool.opt.Search plus the telemetry hub and this graph's
	// Reordered. Post-panic rebuilds reuse it (TelemetryShard 0).
	searchOpt core.Options

	// free holds the snapshot's idle Searchers; live is how many exist
	// (idle or borrowed), shrinking only when a post-panic rebuild fails
	// or is skipped because the epoch was already superseded.
	free chan *core.Searcher
	live atomic.Int64

	// refs / retired / retiredCh / drainOnce implement the drain
	// protocol described on the type. retiredCh unblocks acquirers
	// waiting on free when the epoch is superseded mid-wait.
	refs      atomic.Int64
	retired   atomic.Bool
	retiredCh chan struct{}
	drainOnce sync.Once
}

// retire drops the Pool's reference: the snapshot stops admitting new
// borrows (acquire re-checks retired after referencing) and will drain
// once in-flight borrowers finish. Called with p.swapMu held, exactly
// once per snapshot — by Swap when superseded or by Close.
func (sn *poolSnapshot) retire(p *Pool) {
	sn.retired.Store(true)
	close(sn.retiredCh)
	p.draining.Add(1)
	sn.release(p)
}

// release drops one reference. The holder of the last reference on a
// retired snapshot starts the drain (async: releasing is on query fast
// paths and must not absorb Searcher teardown latency). The drain is
// Once-guarded because acquire can transiently re-reference a retired
// snapshot — add, see retired, release — making the 0→1→0 transition
// reachable more than once.
func (sn *poolSnapshot) release(p *Pool) {
	if sn.refs.Add(-1) == 0 && sn.retired.Load() {
		sn.drainOnce.Do(func() { go sn.drain(p) })
	}
}

// drain closes every Searcher the snapshot still owns. All of them are
// parked in free by now: refs hit 0, so no borrow is outstanding, and
// borrowers return Searchers before releasing. Close errors are
// surfaced through Pool.Close via closeErr.
func (sn *poolSnapshot) drain(p *Pool) {
	var firstErr error
	for i := int64(0); i < sn.live.Load(); i++ {
		s := <-sn.free
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		p.mu.Lock()
		if p.closeErr == nil {
			p.closeErr = firstErr
		}
		p.mu.Unlock()
	}
	p.draining.Add(-1)
	if m := p.tel.Metrics(); m != nil {
		m.SnapshotsDrained.Add(1)
	}
	p.drains.Done()
}

// buildSnapshot constructs a full epoch over g: the ordering is
// recomputed for this graph (unless rd, the caller's precomputed
// Reordered, is supplied — only NewPool does that, passing
// opt.Search.Reordered through for epoch 1) and p.size warm Searchers
// are built. A panic anywhere in the build — the reorder, the CSR
// relabel, Searcher construction — is contained here and reported as
// an error, so a Swap against a pathological graph degrades instead of
// crashing the serving process.
func (p *Pool) buildSnapshot(g *Graph, epoch int64, rd *Reordered) (sn *poolSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			if sn != nil {
				for len(sn.free) > 0 {
					_ = (<-sn.free).Close()
				}
			}
			sn, err = nil, fmt.Errorf("mcbfs: building snapshot epoch %d panicked: %v", epoch, r)
		}
	}()
	searchOpt := p.opt.Search
	searchOpt.Telemetry = p.tel
	searchOpt.Ordering = p.ordering
	searchOpt.TelemetryShard = 0
	if epoch > 1 && searchOpt.Transpose != nil {
		// The configured transpose belongs to the epoch-1 graph. The
		// "graph is its own transpose" idiom (symmetric graphs) carries
		// forward to the swapped-in graph; any other transpose cannot —
		// using it would silently corrupt direction-optimizing searches
		// on the new epoch, so the swap fails (degrading to the old
		// epoch) instead.
		if !p.transposeSelf {
			return nil, errors.New("mcbfs: Options.Transpose was built for the original graph; swapped-in graphs need none (or must be symmetric, with Transpose set to the graph itself)")
		}
		searchOpt.Transpose = g
	}
	if rd == nil && p.ordering != graph.OrderNatural {
		// Relabel once per epoch: every Searcher and batch runner on
		// this snapshot shares one Reordered rather than paying its own
		// permutation + CSR rewrite.
		rd, err = g.Reorder(p.ordering)
		if err != nil {
			return nil, err
		}
		if m := p.tel.Metrics(); m != nil {
			m.ReorderNs.Add(int64(rd.ReorderTime()))
		}
	}
	searchOpt.Reordered = rd
	if rd != nil && p.tel != nil {
		p.tel.SetOrdering(obs.OrderingInfo{
			Order:       rd.Order.String(),
			PermNs:      int64(rd.PermTime),
			RelabelNs:   int64(rd.RelabelTime),
			HubVertices: int64(rd.HubVertices),
			HubEdges:    rd.HubEdges,
			TotalEdges:  g.NumEdges(),
		})
	}
	sn = &poolSnapshot{
		epoch:     epoch,
		g:         g,
		searchOpt: searchOpt,
		free:      make(chan *core.Searcher, p.size),
		retiredCh: make(chan struct{}),
	}
	sn.refs.Store(1)
	sn.live.Store(int64(p.size))
	for i := 0; i < p.size; i++ {
		so := searchOpt
		so.TelemetryShard = i
		s, err := core.NewSearcher(g, so)
		if err != nil {
			for len(sn.free) > 0 {
				_ = (<-sn.free).Close()
			}
			return nil, err
		}
		sn.free <- s
	}
	return sn, nil
}

// Swap replaces the pool's serving graph with g, with zero downtime:
// a full snapshot (ordering recomputed, Size warm Searchers) is built
// over g while the old epoch keeps serving, then published atomically.
// Queries admitted after Swap returns run on g; queries in flight —
// including any still waiting for a Searcher — drain on (or migrate
// from) the old snapshot, whose Searchers are closed only after its
// last borrower returns. If building the new snapshot fails, the pool
// keeps serving the old epoch untouched (the degradation rule) and
// Swap returns the error. Swaps serialize with each other, Rebuild,
// and Close.
func (p *Pool) Swap(g *Graph) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	return p.swapLocked(g)
}

// swapLocked is Swap with p.swapMu held (shared with Rebuild).
func (p *Pool) swapLocked(g *Graph) error {
	if g == nil {
		return errors.New("mcbfs: Swap with nil graph")
	}
	if err := p.err(); err != nil {
		return err
	}
	old := p.snap.Load()
	start := time.Now()
	sn, err := p.buildSnapshot(g, old.epoch+1, nil)
	if err != nil {
		if m := p.tel.Metrics(); m != nil {
			m.SwapDegraded.Add(1)
		}
		return fmt.Errorf("mcbfs: swap to epoch %d failed, still serving epoch %d: %w", old.epoch+1, old.epoch, err)
	}
	p.drains.Add(1)
	p.snap.Store(sn)
	old.retire(p)
	p.tel.RecordSwap(sn.epoch, time.Since(start))
	return nil
}

// Ingest buffers edges for a future Rebuild and returns how many edges
// are now pending. Buffered edges are not visible to queries until a
// Rebuild (explicit, or automatic once the buffer reaches
// PoolOptions.RebuildThreshold) merges them with the serving graph and
// swaps the result in. Duplicate edges are kept, as in the CSR builder
// itself; endpoints beyond the current vertex count grow the graph.
func (p *Pool) Ingest(edges []Edge) (pending int, err error) {
	if err := p.err(); err != nil {
		return 0, err
	}
	p.pendMu.Lock()
	for _, e := range edges {
		p.pendSrcs = append(p.pendSrcs, e.Src)
		p.pendDsts = append(p.pendDsts, e.Dst)
	}
	pending = len(p.pendSrcs)
	p.pendMu.Unlock()
	if m := p.tel.Metrics(); m != nil {
		m.IngestedEdges.Add(int64(len(edges)))
	}
	if th := p.opt.RebuildThreshold; th > 0 && pending >= th &&
		p.rebuilding.CompareAndSwap(false, true) {
		go func() {
			defer p.rebuilding.Store(false)
			_, _ = p.Rebuild()
		}()
	}
	return pending, nil
}

// Rebuild merges every buffered Ingest edge with the serving graph
// through the parallel CSR builder and hot-swaps the result in,
// returning the new serving epoch. The merged graph stays flagged
// Symmetric, so batched queries keep their bottom-up levels, when the
// serving graph was and the buffered edges pair up: every (u, v)
// ingested with a matching (v, u). With nothing buffered it is a no-op
// returning the current epoch. On failure the buffered edges are
// restored (ahead of anything ingested meanwhile) and the old epoch
// keeps serving.
func (p *Pool) Rebuild() (epoch int64, err error) {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	p.pendMu.Lock()
	srcs, dsts := p.pendSrcs, p.pendDsts
	p.pendSrcs, p.pendDsts = nil, nil
	p.pendMu.Unlock()
	if err := p.err(); err != nil {
		return 0, err
	}
	if len(srcs) == 0 {
		return p.snap.Load().epoch, nil
	}
	restore := func() {
		p.pendMu.Lock()
		p.pendSrcs = append(srcs, p.pendSrcs...)
		p.pendDsts = append(dsts, p.pendDsts...)
		p.pendMu.Unlock()
	}
	merged, err := graph.AppendEdges(p.snap.Load().g, srcs, dsts)
	if err != nil {
		restore()
		return 0, fmt.Errorf("mcbfs: rebuild merge of %d pending edges: %w", len(srcs), err)
	}
	if err := p.swapLocked(merged); err != nil {
		restore()
		return 0, err
	}
	return p.snap.Load().epoch, nil
}
