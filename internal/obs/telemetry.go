package obs

import (
	"sync/atomic"
	"time"
)

// TelemetryOptions configures a Telemetry hub. The zero value is usable:
// one histogram shard, a 256-entry flight ring, and a Metrics the hub
// allocates for itself.
type TelemetryOptions struct {
	// Shards is the latency histogram's shard count; size it to the
	// number of concurrent recorders (the Pool uses its Searcher count).
	// Values below 1 become 1.
	Shards int
	// FlightSize is the flight recorder's ring length. 0 means 256.
	// Each slot reserves room for an 8-level capture (1,152 B) up front.
	FlightSize int
	// Metrics is the counter set the hub counts into and exports on
	// /metrics — each recorded query's per-level totals, its batch
	// traversals and hot-swaps; nil makes the hub allocate its own. The
	// hub's lanes histogram takes its count and sum from it, so give
	// each hub its own Metrics and share the hub instead to aggregate
	// pools.
	Metrics *Metrics
}

// Telemetry is the serving-telemetry hub: a sharded latency histogram,
// a slow-query flight recorder, sliding-window QPS/error counters,
// per-outcome totals, and the HTTP exposition over all of them
// (Prometheus text /metrics, JSON /debug/bfs — see serve.go). The hub
// classifies queries; the cumulative work it sees (each query's
// per-level totals, batch traversals, hot-swaps) it counts into its
// Metrics, so each count has one home.
//
// One Telemetry is shared by every session serving a pool (or any set
// of concurrent recorders); RecordQuery is safe for concurrent use and
// allocation-free on the warm path. A nil *Telemetry disables every
// recording method.
type Telemetry struct {
	metrics  *Metrics
	hist     *Histogram
	flight   *FlightRecorder
	ok       SlidingCounter
	errs     SlidingCounter
	outcomes [numOutcomes]atomic.Int64
	// batchLanes is the lanes-per-traversal histogram: bucket i counts
	// MS-BFS traversals that carried at most 1<<i lanes (le 1, 2, 4, …,
	// 64). The matching totals live in metrics.
	batchLanes [batchLaneBuckets]atomic.Int64
	// ordering describes the active vertex ordering (nil when the pool
	// serves in natural order); registered by Pool at construction, read
	// by the status page and /metrics. Atomic so registration can trail
	// the first queries.
	ordering atomic.Pointer[OrderingInfo]
	// poolInfo is the capacity gauge the serving pool registers:
	// Searcher slots and batch lanes reported separately, so
	// batching-dominant configurations are not misread as tiny pools.
	// Atomic for the same registration-ordering reason as ordering.
	poolInfo atomic.Pointer[func() PoolInfo]
	// Snapshot hot-swap gauges: the current graph epoch, the last
	// swap's latency, and when it landed (from which the status page
	// derives snapshot staleness); the cumulative swap totals live in
	// metrics. drainGauge reports retired-but-undrained snapshots.
	graphEpoch atomic.Int64
	lastSwapNs atomic.Int64
	lastSwapAt atomic.Int64 // unix nanos; 0 = never swapped
	drainGauge atomic.Pointer[func() int]
	// epoch anchors process-relative timestamps on the status page.
	epoch time.Time
}

// PoolInfo is the serving pool's capacity broken out by admission path:
// warm Searcher slots (with how many are currently borrowed) and — when
// batching is on — the MS-BFS lane capacity (Lanes × Runners) that
// serves default-configuration queries without borrowing a Searcher.
type PoolInfo struct {
	SearcherSlots int
	SearchersBusy int
	BatchLanes    int
	BatchRunners  int
}

// OrderingInfo describes the vertex ordering a serving pool relabeled
// its graph with: the ordering's name, the one-time cost split into
// permutation computation and CSR rewrite, and the hub-prefix residency
// (how many vertices cleared the hub threshold and what fraction of the
// adjacency their lists occupy).
type OrderingInfo struct {
	Order       string
	PermNs      int64
	RelabelNs   int64
	HubVertices int64
	HubEdges    int64
	TotalEdges  int64
}

// batchLaneBuckets is the lanes histogram's bucket count: powers of two
// 1..64.
const batchLaneBuckets = 7

// NewTelemetry builds a telemetry hub.
func NewTelemetry(opt TelemetryOptions) *Telemetry {
	size := opt.FlightSize
	if size <= 0 {
		size = 256
	}
	m := opt.Metrics
	if m == nil {
		m = &Metrics{}
	}
	hist := NewHistogram(opt.Shards)
	return &Telemetry{
		metrics: m,
		hist:    hist,
		flight:  newFlightRecorder(size, hist),
		epoch:   time.Now(),
	}
}

// Histogram returns the latency histogram (nil on a nil receiver).
func (t *Telemetry) Histogram() *Histogram {
	if t == nil {
		return nil
	}
	return t.hist
}

// Flight returns the flight recorder (nil on a nil receiver).
func (t *Telemetry) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// Metrics returns the counter set the hub counts into and exports on
// /metrics: TelemetryOptions.Metrics, or the one the hub allocated. It
// is nil only on a nil receiver.
func (t *Telemetry) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SetOrdering registers the active vertex ordering shown on /debug/bfs
// and /metrics. The Pool registers it when PoolOptions.Search carries a
// non-natural ordering; no-op on a nil receiver.
func (t *Telemetry) SetOrdering(info OrderingInfo) {
	if t == nil {
		return
	}
	t.ordering.Store(&info)
}

// Ordering returns the registered ordering info, or nil when the hub
// serves a natural-order pool (or on a nil receiver).
func (t *Telemetry) Ordering() *OrderingInfo {
	if t == nil {
		return nil
	}
	return t.ordering.Load()
}

// SetPoolInfo registers the capacity gauge shown on /debug/bfs and
// /metrics (Searcher slots and batch lanes separately); fn must be safe
// for concurrent use. A Pool registers its own on the hub it reports
// into. No-op on a nil receiver.
func (t *Telemetry) SetPoolInfo(fn func() PoolInfo) {
	if t == nil {
		return
	}
	t.poolInfo.Store(&fn)
}

// SetEpoch publishes the current graph epoch without recording a swap —
// the pool calls it once at construction so the status page shows epoch
// 1 before the first Swap. No-op on a nil receiver.
func (t *Telemetry) SetEpoch(epoch int64) {
	if t == nil {
		return
	}
	t.graphEpoch.Store(epoch)
}

// RecordSwap deposits one completed graph snapshot hot-swap: the new
// epoch becomes current, the swap is counted into the hub's Metrics
// (Swaps, SwapNs), and d — building the epoch's Searchers plus the
// atomic install — becomes the last-swap latency. Safe for concurrent
// use, no-op on a nil receiver.
func (t *Telemetry) RecordSwap(epoch int64, d time.Duration) {
	if t == nil {
		return
	}
	t.graphEpoch.Store(epoch)
	t.metrics.Swaps.Add(1)
	t.metrics.SwapNs.Add(int64(d))
	t.lastSwapNs.Store(int64(d))
	t.lastSwapAt.Store(time.Now().UnixNano())
}

// SetDrainGauge registers the retired-but-undrained snapshot count
// shown on /debug/bfs and /metrics; fn must be safe for concurrent use.
// No-op on a nil receiver.
func (t *Telemetry) SetDrainGauge(fn func() int) {
	if t == nil {
		return
	}
	t.drainGauge.Store(&fn)
}

// Epoch returns the current graph epoch (0 when no pool registered
// one) and the number of swaps counted in the hub's Metrics.
func (t *Telemetry) Epoch() (epoch, swaps int64) {
	if t == nil {
		return 0, 0
	}
	return t.graphEpoch.Load(), t.metrics.Swaps.Load()
}

// Staleness returns the time since the last recorded swap, or 0 when
// no swap has been recorded (the initial snapshot is as fresh as the
// pool).
func (t *Telemetry) Staleness() time.Duration {
	if t == nil {
		return 0
	}
	at := t.lastSwapAt.Load()
	if at == 0 {
		return 0
	}
	return time.Since(time.Unix(0, at))
}

// draining reads the registered drain gauge, or 0 when none is set.
func (t *Telemetry) draining() int {
	if t == nil {
		return 0
	}
	if fn := t.drainGauge.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// RecordQuery deposits one finished query: latency into the histogram's
// given shard, the outcome into the per-outcome totals and the rolling
// ok/error windows, the sum of s.PerLevel into the hub's Metrics (a
// query that ran no level adds nothing there), and the sample into the
// flight recorder (which retains s.PerLevel only for slow queries).
// Safe for concurrent use; allocation-free once the flight ring's slot
// capacities have warmed. No-op on a nil receiver.
func (t *Telemetry) RecordQuery(shard int, s QuerySample) {
	if t == nil {
		return
	}
	t.hist.Record(shard, s.Duration)
	o := s.Outcome
	if o >= numOutcomes {
		o = numOutcomes - 1
	}
	t.outcomes[o].Add(1)
	if o == OutcomeOK {
		t.ok.Add(1)
	} else {
		t.errs.Add(1)
	}
	t.metrics.addLevels(s.PerLevel)
	t.flight.note(s)
}

// RecordShed deposits a query refused at pool admission: it never
// searched, so the sample carries only the time spent waiting.
func (t *Telemetry) RecordShed(start time.Time, d time.Duration) {
	t.RecordQuery(0, QuerySample{Start: start, Duration: d, Outcome: OutcomeShed})
}

// RecordBatch deposits one finished MS-BFS batch traversal: the lane
// count into the lanes-per-traversal histogram (power-of-two buckets le
// 1, 2, 4, …, 64) and the batch totals into the hub's Metrics
// (BatchTraversals, BatchLanes, BatchEdges, BatchLaneEdges) —
// edgesScanned is what the shared traversal actually loaded, laneEdges
// what its lanes would have scanned as independent single-source
// searches. Per-lane latency samples are recorded separately via
// RecordQuery. Safe for concurrent use, allocation-free, no-op on a nil
// receiver.
func (t *Telemetry) RecordBatch(lanes int, edgesScanned, laneEdges int64) {
	if t == nil {
		return
	}
	b := 0
	for (1<<uint(b)) < lanes && b < batchLaneBuckets-1 {
		b++
	}
	t.batchLanes[b].Add(1)
	m := t.metrics
	m.BatchTraversals.Add(1)
	m.BatchLanes.Add(int64(lanes))
	m.BatchEdges.Add(edgesScanned)
	m.BatchLaneEdges.Add(laneEdges)
}

// BatchStats returns the batch totals counted in the hub's Metrics:
// traversals, lanes carried, edges the shared traversals scanned, and
// edges the lanes would have scanned independently.
func (t *Telemetry) BatchStats() (traversals, lanes, edgesScanned, laneEdges int64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	m := t.metrics
	return m.BatchTraversals.Load(), m.BatchLanes.Load(), m.BatchEdges.Load(), m.BatchLaneEdges.Load()
}

// BatchLaneBuckets returns the lanes-per-traversal histogram as
// (upper-bound, count) pairs: bucket i counts traversals with at most
// 1<<i lanes.
func (t *Telemetry) BatchLaneBuckets() [batchLaneBuckets]int64 {
	var out [batchLaneBuckets]int64
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = t.batchLanes[i].Load()
	}
	return out
}

// OutcomeCount returns the total number of queries recorded with the
// given outcome.
func (t *Telemetry) OutcomeCount(o Outcome) int64 {
	if t == nil || o >= numOutcomes {
		return 0
	}
	return t.outcomes[o].Load()
}

// QPS returns the rolling queries-per-second (all outcomes) over the
// trailing window.
func (t *Telemetry) QPS(window time.Duration) float64 {
	if t == nil {
		return 0
	}
	return t.ok.Rate(window) + t.errs.Rate(window)
}

// ErrorRate returns the rolling non-OK outcomes per second over the
// trailing window.
func (t *Telemetry) ErrorRate(window time.Duration) float64 {
	if t == nil {
		return 0
	}
	return t.errs.Rate(window)
}

// info reads the registered capacity gauge, or nil when none is
// registered.
func (t *Telemetry) info() *PoolInfo {
	if t == nil {
		return nil
	}
	if fn := t.poolInfo.Load(); fn != nil {
		i := (*fn)()
		return &i
	}
	return nil
}
