package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Metrics is a set of live, concurrency-safe counters fed by a Tracer
// and publishable through expvar, for watching long-running BFS
// workloads (e.g. bfsbench -pprof :6060, then
// curl localhost:6060/debug/vars). The zero value is ready to use; one
// Metrics may be shared by any number of concurrent searches.
type Metrics struct {
	// Searches counts BFS runs started; LevelsDone completed levels.
	Searches   atomic.Int64
	LevelsDone atomic.Int64
	// Frontier and Edges accumulate the folded per-level counters.
	Frontier    atomic.Int64
	Edges       atomic.Int64
	BitmapReads atomic.Int64
	AtomicOps   atomic.Int64
	// RemoteBatches and RemoteTuples count inter-socket channel flushes.
	RemoteBatches atomic.Int64
	RemoteTuples  atomic.Int64
	// BarrierWaitNs, LocalScanNs and QueueDrainNs accumulate worker
	// phase time in nanoseconds.
	BarrierWaitNs atomic.Int64
	LocalScanNs   atomic.Int64
	QueueDrainNs  atomic.Int64
	// TimedOut counts protocol-level roots abandoned at a per-root
	// deadline (graph500 -deadline). Per-query serving outcomes are not
	// kept here: a Telemetry hub classifies them (OutcomeCount).
	TimedOut atomic.Int64
	// BatchTraversals counts MS-BFS batch traversals; BatchLanes the
	// lanes (queries) they carried, so BatchLanes/BatchTraversals is the
	// mean batch width. BatchEdges accumulates the adjacency entries the
	// shared traversals examined (BatchResult.EdgesScanned: bottom-up
	// levels count only the entries their scans read) and BatchLaneEdges
	// the entries the lanes would have scanned as single-source
	// top-down searches — BatchLaneEdges/BatchEdges is the live
	// bandwidth-amortization factor. Fed by Telemetry.RecordBatch into
	// the hub's Metrics.
	BatchTraversals atomic.Int64
	BatchLanes      atomic.Int64
	BatchEdges      atomic.Int64
	BatchLaneEdges  atomic.Int64
	// ReorderNs accumulates time spent computing and applying
	// locality-optimized vertex orderings (graph.Reorder), fed by the
	// serving layer when a pool relabels its graph at construction. The
	// counter against which ordering TEPS gains amortize.
	ReorderNs atomic.Int64
	// Swaps counts graph snapshot hot-swaps installed by the serving
	// layer (mcbfs.Pool.Swap, through Telemetry.RecordSwap); SwapNs
	// accumulates their end-to-end latency — building the new epoch's
	// sessions (reordering included) plus the atomic install.
	// SwapDegraded counts failed swaps, each of which left both
	// admission paths serving the old snapshot: the degradation rule
	// made visible.
	Swaps        atomic.Int64
	SwapNs       atomic.Int64
	SwapDegraded atomic.Int64
	// IngestedEdges counts edges buffered through Pool.Ingest awaiting
	// the next rebuild; SnapshotsDrained counts retired snapshots whose
	// last borrower has returned and whose Searchers have all been
	// closed — when it equals Swaps (plus one after Close), no stale
	// epoch still holds worker goroutines.
	IngestedEdges    atomic.Int64
	SnapshotsDrained atomic.Int64
}

// Snapshot returns the current counter values keyed by name.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"searches":      m.Searches.Load(),
		"levelsDone":    m.LevelsDone.Load(),
		"frontier":      m.Frontier.Load(),
		"edges":         m.Edges.Load(),
		"bitmapReads":   m.BitmapReads.Load(),
		"atomicOps":     m.AtomicOps.Load(),
		"remoteBatches": m.RemoteBatches.Load(),
		"remoteTuples":  m.RemoteTuples.Load(),
		"barrierWaitNs": m.BarrierWaitNs.Load(),
		"localScanNs":   m.LocalScanNs.Load(),
		"queueDrainNs":  m.QueueDrainNs.Load(),
		"timedOut":      m.TimedOut.Load(),

		"batchTraversals": m.BatchTraversals.Load(),
		"batchLanes":      m.BatchLanes.Load(),
		"batchEdges":      m.BatchEdges.Load(),
		"batchLaneEdges":  m.BatchLaneEdges.Load(),
		"reorderNs":       m.ReorderNs.Load(),

		"swaps":            m.Swaps.Load(),
		"swapNs":           m.SwapNs.Load(),
		"swapDegraded":     m.SwapDegraded.Load(),
		"ingestedEdges":    m.IngestedEdges.Load(),
		"snapshotsDrained": m.SnapshotsDrained.Load(),
	}
}

// publishMu serializes Publish's check-then-register against the
// process-wide expvar registry, which offers no atomic try-publish.
var publishMu sync.Mutex

// Publish registers the metrics under name in the process-wide expvar
// registry (served at /debug/vars by any net/http server using the
// default mux). Re-publishing is idempotent rather than a panic: when
// name is already registered — by this Metrics or anything else, since
// expvar offers no way to replace a variable — Publish leaves the
// existing variable in place and returns.
func (m *Metrics) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

// Tracer returns a Tracer that feeds the metrics; attach it to
// Options.Tracer. It reads only the folded per-level records, so its
// atomic adds run once per level on the barrier coordinator, never on a
// worker. It is safe for concurrent use and may be combined with other
// tracers via MultiTracer.
func (m *Metrics) Tracer() Tracer {
	return metricsTracer{m}
}

type metricsTracer struct{ m *Metrics }

func (t metricsTracer) OnLevelStart(level int) {
	if level == 0 {
		t.m.Searches.Add(1)
	}
}

func (t metricsTracer) OnLevelEnd(level int, b LevelBreakdown) {
	t.m.LevelsDone.Add(1)
	t.m.Frontier.Add(b.Frontier)
	t.m.Edges.Add(b.Edges)
	t.m.BitmapReads.Add(b.BitmapReads)
	t.m.AtomicOps.Add(b.AtomicOps)
	t.m.RemoteBatches.Add(b.RemoteBatches)
	t.m.RemoteTuples.Add(b.RemoteTuples)
	t.m.BarrierWaitNs.Add(int64(b.Phases[PhaseBarrierWait]))
	t.m.LocalScanNs.Add(int64(b.Phases[PhaseLocalScan]))
	t.m.QueueDrainNs.Add(int64(b.Phases[PhaseQueueDrain]))
}

// MultiTracer fans callbacks out to every tracer in order.
func MultiTracer(tracers ...Tracer) Tracer {
	ts := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	return multiTracer(ts)
}

type multiTracer []Tracer

func (m multiTracer) OnLevelStart(level int) {
	for _, t := range m {
		t.OnLevelStart(level)
	}
}

func (m multiTracer) OnLevelEnd(level int, b LevelBreakdown) {
	for _, t := range m {
		t.OnLevelEnd(level, b)
	}
}
