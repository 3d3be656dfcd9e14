package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the HTTP exposition layer over a Telemetry hub:
//
//   - /metrics — Prometheus text format (version 0.0.4), no external
//     dependencies: the latency histogram with cumulative le buckets,
//     per-outcome query counters, pool-occupancy gauges, and the hub's
//     Metrics counters, each count under exactly one family;
//   - /debug/bfs — a JSON status page: pool occupancy, rolling
//     1s/10s/60s QPS and error rates, latency quantiles, and the top-K
//     slowest recent queries with per-level phase breakdowns for those
//     the flight recorder captured.

// Handler returns an http.Handler serving GET /metrics and /debug/bfs.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", t.MetricsHandler())
	mux.Handle("/debug/bfs", t.StatusHandler())
	return mux
}

// MetricsHandler returns the Prometheus text-format exposition handler
// alone, for mounting on an existing mux.
func (t *Telemetry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WriteMetrics(w)
	})
}

// StatusHandler returns the JSON status-page handler alone.
func (t *Telemetry) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Status())
	})
}

// promSec renders a nanosecond count as Prometheus seconds.
func promSec(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WriteMetrics writes the hub's state in Prometheus text format.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	var b strings.Builder

	// Latency histogram: cumulative le buckets. Only buckets that close
	// a non-empty range are emitted (plus +Inf), which keeps the series
	// compact and remains valid exposition: le values ascend, cumulative
	// counts are non-decreasing, and +Inf equals _count.
	snap := t.hist.Snapshot()
	b.WriteString("# HELP mcbfs_query_duration_seconds BFS query latency (search time; shed queries report their admission wait).\n")
	b.WriteString("# TYPE mcbfs_query_duration_seconds histogram\n")
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		c := snap.Counts[i]
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(&b, "mcbfs_query_duration_seconds_bucket{le=%q} %d\n", promSec(bucketUpper(i)), cum)
	}
	fmt.Fprintf(&b, "mcbfs_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", snap.Count)
	fmt.Fprintf(&b, "mcbfs_query_duration_seconds_sum %s\n", promSec(snap.SumNs))
	fmt.Fprintf(&b, "mcbfs_query_duration_seconds_count %d\n", snap.Count)

	// Per-outcome query totals.
	b.WriteString("# HELP mcbfs_queries_total Queries recorded, by outcome.\n")
	b.WriteString("# TYPE mcbfs_queries_total counter\n")
	for o := Outcome(0); o < numOutcomes; o++ {
		fmt.Fprintf(&b, "mcbfs_queries_total{outcome=%q} %d\n", o.String(), t.outcomes[o].Load())
	}

	// Lanes-per-traversal histogram, emitted only once a batch has been
	// recorded so non-batching deployments keep their exposition
	// unchanged. The edge totals are Metrics counters, written below.
	traversals, lanes, _, _ := t.BatchStats()
	if traversals > 0 {
		b.WriteString("# HELP mcbfs_batch_lanes Lanes (queries) carried per MS-BFS batch traversal.\n")
		b.WriteString("# TYPE mcbfs_batch_lanes histogram\n")
		buckets := t.BatchLaneBuckets()
		var cum int64
		for i, c := range buckets {
			cum += c
			if c == 0 && i < len(buckets)-1 {
				continue
			}
			fmt.Fprintf(&b, "mcbfs_batch_lanes_bucket{le=\"%d\"} %d\n", 1<<uint(i), cum)
		}
		fmt.Fprintf(&b, "mcbfs_batch_lanes_bucket{le=\"+Inf\"} %d\n", traversals)
		fmt.Fprintf(&b, "mcbfs_batch_lanes_sum %d\n", lanes)
		fmt.Fprintf(&b, "mcbfs_batch_lanes_count %d\n", traversals)
	}

	// Active vertex ordering: one-time reorder cost and hub-prefix
	// residency, emitted only when a pool registered a reordering.
	if info := t.Ordering(); info != nil {
		b.WriteString("# HELP mcbfs_reorder_seconds One-time cost of the active vertex reordering (permutation + CSR rewrite).\n")
		b.WriteString("# TYPE mcbfs_reorder_seconds gauge\n")
		fmt.Fprintf(&b, "mcbfs_reorder_seconds{order=%q} %s\n", info.Order, promSec(uint64(info.PermNs+info.RelabelNs)))
		if info.TotalEdges > 0 {
			b.WriteString("# HELP mcbfs_hub_edge_fraction Fraction of adjacency slots owned by hub vertices (degree >= 2x average).\n")
			b.WriteString("# TYPE mcbfs_hub_edge_fraction gauge\n")
			fmt.Fprintf(&b, "mcbfs_hub_edge_fraction %s\n",
				strconv.FormatFloat(float64(info.HubEdges)/float64(info.TotalEdges), 'g', -1, 64))
		}
	}

	// Graph snapshot epoch, swap latency, and staleness — emitted only
	// when a hot-swapping pool registered an epoch. The swap totals are
	// Metrics counters, written below.
	if epoch, swaps := t.Epoch(); epoch > 0 {
		b.WriteString("# HELP mcbfs_graph_epoch Current graph snapshot epoch (bumped by each hot-swap).\n")
		b.WriteString("# TYPE mcbfs_graph_epoch gauge\n")
		fmt.Fprintf(&b, "mcbfs_graph_epoch %d\n", epoch)
		if swaps > 0 {
			b.WriteString("# HELP mcbfs_swap_duration_seconds Last hot-swap's build+install latency.\n")
			b.WriteString("# TYPE mcbfs_swap_duration_seconds gauge\n")
			fmt.Fprintf(&b, "mcbfs_swap_duration_seconds %s\n", promSec(uint64(t.lastSwapNs.Load())))
			b.WriteString("# HELP mcbfs_snapshot_staleness_seconds Time since the current snapshot was installed.\n")
			b.WriteString("# TYPE mcbfs_snapshot_staleness_seconds gauge\n")
			fmt.Fprintf(&b, "mcbfs_snapshot_staleness_seconds %s\n", promSec(uint64(t.Staleness())))
		}
		b.WriteString("# HELP mcbfs_snapshots_draining Retired snapshots still waiting for their last borrower.\n")
		b.WriteString("# TYPE mcbfs_snapshots_draining gauge\n")
		fmt.Fprintf(&b, "mcbfs_snapshots_draining %d\n", t.draining())
	}

	// Flight-recorder threshold and pool occupancy gauges.
	b.WriteString("# HELP mcbfs_slow_capture_threshold_seconds Current flight-recorder slow-capture threshold.\n")
	b.WriteString("# TYPE mcbfs_slow_capture_threshold_seconds gauge\n")
	fmt.Fprintf(&b, "mcbfs_slow_capture_threshold_seconds %s\n", promSec(uint64(t.flight.Threshold())))
	pool := t.info()
	if pool != nil && pool.SearcherSlots > 0 {
		b.WriteString("# HELP mcbfs_pool_searchers Searchers in the serving pool.\n")
		b.WriteString("# TYPE mcbfs_pool_searchers gauge\n")
		fmt.Fprintf(&b, "mcbfs_pool_searchers %d\n", pool.SearcherSlots)
		b.WriteString("# HELP mcbfs_pool_searchers_busy Searchers currently borrowed by in-flight queries.\n")
		b.WriteString("# TYPE mcbfs_pool_searchers_busy gauge\n")
		fmt.Fprintf(&b, "mcbfs_pool_searchers_busy %d\n", pool.SearchersBusy)
	}
	if pool != nil && pool.BatchLanes > 0 {
		b.WriteString("# HELP mcbfs_pool_batch_lanes MS-BFS lane capacity (lanes per traversal x runners).\n")
		b.WriteString("# TYPE mcbfs_pool_batch_lanes gauge\n")
		fmt.Fprintf(&b, "mcbfs_pool_batch_lanes %d\n", pool.BatchLanes*pool.BatchRunners)
	}

	// The hub's Metrics counters, exported generically so the series set
	// follows the Metrics struct without a second name table here. A
	// counter is written once it is non-zero, as the batch and swap
	// blocks above are, so a deployment sees only what it exercises.
	counts := t.metrics.Snapshot()
	keys := make([]string, 0, len(counts))
	for k, v := range counts {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "mcbfs_" + camelToSnake(k) + "_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative %s counter (obs.Metrics).\n", name, k)
		fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		fmt.Fprintf(&b, "%s %d\n", name, counts[k])
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// camelToSnake converts a Snapshot key (e.g. "barrierWaitNs") to a
// Prometheus-style name fragment ("barrier_wait_ns").
func camelToSnake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Status is the /debug/bfs JSON document.
type Status struct {
	// Pool is the serving pool's occupancy (zero when no gauge is
	// registered).
	Pool PoolStatus `json:"pool"`
	// QPS and ErrorRate are rolling rates over 1s/10s/60s windows.
	QPS       WindowRates `json:"qps"`
	ErrorRate WindowRates `json:"errorRate"`
	// Latency summarizes the histogram.
	Latency LatencyStatus `json:"latency"`
	// Queries is the per-outcome totals.
	Queries map[string]int64 `json:"queries"`
	// Batch summarizes MS-BFS batch traversals; omitted until one has
	// been recorded.
	Batch *BatchStatus `json:"batch,omitempty"`
	// Ordering describes the active vertex ordering; omitted for
	// natural-order pools.
	Ordering *OrderingStatus `json:"ordering,omitempty"`
	// Snapshot describes the graph epoch and hot-swap history; omitted
	// until a pool registers an epoch.
	Snapshot *SnapshotStatus `json:"snapshot,omitempty"`
	// CaptureThresholdNs is the flight recorder's current capture
	// threshold, under the JSON name /debug/bfs consumers read.
	CaptureThresholdNs int64 `json:"slowThresholdNs"`
	// Slowest is the top-K slowest queries currently in the flight
	// ring, slowest first; captured entries carry per-level breakdowns.
	Slowest []QueryStatus `json:"slowest"`
}

// PoolStatus is the pool-occupancy block of Status. Size and Busy
// describe the Searcher slots; when the pool runs in batching mode,
// BatchLanes and BatchRunners report the MS-BFS lane capacity that
// serves default-configuration queries without borrowing a Searcher —
// the two admission paths are listed explicitly rather than folded
// into one misleading number.
type PoolStatus struct {
	Size         int `json:"size"`
	Busy         int `json:"busy"`
	BatchLanes   int `json:"batchLanes,omitempty"`
	BatchRunners int `json:"batchRunners,omitempty"`
}

// SnapshotStatus is the graph-epoch block of Status: which snapshot is
// serving, how many hot-swaps have been installed, the last swap's
// build+install latency, how stale the serving snapshot is, and how
// many retired snapshots are still draining in-flight borrowers.
type SnapshotStatus struct {
	Epoch       int64  `json:"epoch"`
	Swaps       int64  `json:"swaps"`
	LastSwap    string `json:"lastSwap,omitempty"`
	LastSwapNs  int64  `json:"lastSwapNs,omitempty"`
	StalenessNs int64  `json:"stalenessNs,omitempty"`
	Draining    int    `json:"draining"`
}

// BatchStatus is the MS-BFS block of Status: batch volume, mean width,
// and the edge-scan amortization factor (lane-attributed edges over
// edges actually scanned — the bandwidth multiplier batching bought).
type BatchStatus struct {
	Traversals   int64   `json:"traversals"`
	Lanes        int64   `json:"lanes"`
	MeanWidth    float64 `json:"meanWidth"`
	EdgesScanned int64   `json:"edgesScanned"`
	LaneEdges    int64   `json:"laneEdges"`
	Amortization float64 `json:"amortization"`
}

// OrderingStatus is the vertex-ordering block of Status: which
// locality ordering the pool relabeled its graph with, the one-time
// cost (split into permutation computation and CSR rewrite), and the
// hub-prefix residency — the fraction of adjacency slots owned by hub
// vertices, i.e. how much of the edge traffic the cache-resident
// prefix serves.
type OrderingStatus struct {
	Order           string  `json:"order"`
	ReorderNs       int64   `json:"reorderNs"`
	PermNs          int64   `json:"permNs"`
	RelabelNs       int64   `json:"relabelNs"`
	HubVertices     int64   `json:"hubVertices"`
	HubEdges        int64   `json:"hubEdges"`
	HubEdgeFraction float64 `json:"hubEdgeFraction"`
}

// WindowRates holds one rate per rolling window.
type WindowRates struct {
	S1  float64 `json:"1s"`
	S10 float64 `json:"10s"`
	S60 float64 `json:"60s"`
}

// LatencyStatus summarizes the latency histogram.
type LatencyStatus struct {
	Count uint64 `json:"count"`
	Mean  string `json:"mean"`
	P50   string `json:"p50"`
	P90   string `json:"p90"`
	P99   string `json:"p99"`
	P999  string `json:"p999"`
	Max   string `json:"max"`
}

// QueryStatus is one flight-recorder entry rendered for the status
// page.
type QueryStatus struct {
	Seq        uint64        `json:"seq"`
	Root       uint32        `json:"root"`
	Start      time.Time     `json:"start"`
	Duration   string        `json:"duration"`
	DurationNs int64         `json:"durationNs"`
	Levels     int           `json:"levels"`
	Reached    int64         `json:"reached"`
	Edges      int64         `json:"edges"`
	Outcome    string        `json:"outcome"`
	Algorithm  string        `json:"algorithm,omitempty"`
	Captured   bool          `json:"captured"`
	PerLevel   []LevelStatus `json:"perLevel,omitempty"`
}

// LevelStatus is one captured level's breakdown on the status page:
// the folded counters plus per-phase worker nanoseconds keyed by phase
// name.
type LevelStatus struct {
	Level      int   `json:"level"`
	DurationNs int64 `json:"durationNs"`
	Frontier   int64 `json:"frontier"`
	Edges      int64 `json:"edges"`
	// MaxWorkerEdges and Imbalance expose the level's edge-load skew:
	// the straggler worker's edge share and its ratio to the mean share
	// (see LevelBreakdown.Imbalance).
	MaxWorkerEdges int64            `json:"maxWorkerEdges"`
	Imbalance      float64          `json:"imbalance"`
	Steals         int64            `json:"steals,omitempty"`
	PhaseNs        map[string]int64 `json:"phaseNs"`
}

// statusTopK is how many slowest queries the status page lists.
const statusTopK = 8

// Status assembles the /debug/bfs document.
func (t *Telemetry) Status() Status {
	var st Status
	if t == nil {
		return st
	}
	if info := t.info(); info != nil {
		st.Pool = PoolStatus{
			Size:         info.SearcherSlots,
			Busy:         info.SearchersBusy,
			BatchLanes:   info.BatchLanes,
			BatchRunners: info.BatchRunners,
		}
	}
	if epoch, swaps := t.Epoch(); epoch > 0 {
		ss := &SnapshotStatus{Epoch: epoch, Swaps: swaps, Draining: t.draining()}
		if at := t.lastSwapAt.Load(); at != 0 {
			ss.LastSwap = time.Unix(0, at).Format(time.RFC3339Nano)
			ss.LastSwapNs = t.lastSwapNs.Load()
			ss.StalenessNs = int64(t.Staleness())
		}
		st.Snapshot = ss
	}
	st.QPS = WindowRates{
		S1:  t.QPS(1 * time.Second),
		S10: t.QPS(10 * time.Second),
		S60: t.QPS(60 * time.Second),
	}
	st.ErrorRate = WindowRates{
		S1:  t.ErrorRate(1 * time.Second),
		S10: t.ErrorRate(10 * time.Second),
		S60: t.ErrorRate(60 * time.Second),
	}
	snap := t.hist.Snapshot()
	st.Latency = LatencyStatus{
		Count: snap.Count,
		Mean:  snap.Mean().String(),
		P50:   snap.Quantile(0.50).String(),
		P90:   snap.Quantile(0.90).String(),
		P99:   snap.Quantile(0.99).String(),
		P999:  snap.Quantile(0.999).String(),
		Max:   time.Duration(snap.MaxNs).String(),
	}
	st.Queries = make(map[string]int64, numOutcomes)
	for o := Outcome(0); o < numOutcomes; o++ {
		st.Queries[o.String()] = t.outcomes[o].Load()
	}
	if traversals, lanes, scanned, laneEdges := t.BatchStats(); traversals > 0 {
		bs := &BatchStatus{
			Traversals:   traversals,
			Lanes:        lanes,
			MeanWidth:    float64(lanes) / float64(traversals),
			EdgesScanned: scanned,
			LaneEdges:    laneEdges,
		}
		if scanned > 0 {
			bs.Amortization = float64(laneEdges) / float64(scanned)
		}
		st.Batch = bs
	}
	if info := t.Ordering(); info != nil {
		os := &OrderingStatus{
			Order:       info.Order,
			ReorderNs:   info.PermNs + info.RelabelNs,
			PermNs:      info.PermNs,
			RelabelNs:   info.RelabelNs,
			HubVertices: info.HubVertices,
			HubEdges:    info.HubEdges,
		}
		if info.TotalEdges > 0 {
			os.HubEdgeFraction = float64(info.HubEdges) / float64(info.TotalEdges)
		}
		st.Ordering = os
	}
	st.CaptureThresholdNs = int64(t.flight.Threshold())
	for _, rec := range t.flight.Slowest(statusTopK) {
		st.Slowest = append(st.Slowest, renderRecord(rec))
	}
	return st
}

// renderRecord converts a QueryRecord into its status-page form.
func renderRecord(rec QueryRecord) QueryStatus {
	q := QueryStatus{
		Seq:        rec.Seq,
		Root:       rec.Root,
		Start:      rec.Start,
		Duration:   rec.Duration.String(),
		DurationNs: int64(rec.Duration),
		Levels:     rec.Levels,
		Reached:    rec.Reached,
		Edges:      rec.Edges,
		Outcome:    rec.Outcome.String(),
		Algorithm:  rec.Algorithm,
		Captured:   rec.Captured,
	}
	for _, lb := range rec.PerLevel {
		ls := LevelStatus{
			Level:          lb.Level,
			DurationNs:     int64(lb.Duration),
			Frontier:       lb.Frontier,
			Edges:          lb.Edges,
			MaxWorkerEdges: lb.MaxWorkerEdges,
			Imbalance:      lb.Imbalance(),
			Steals:         lb.Steals,
			PhaseNs:        make(map[string]int64, NumPhases),
		}
		for p := Phase(0); p < NumPhases; p++ {
			ls.PhaseNs[p.String()] = int64(lb.Phases[p])
		}
		q.PerLevel = append(q.PerLevel, ls)
	}
	return q
}
