package obs

import (
	"sort"
	"sync"
	"time"
)

// Outcome classifies how a query ended.
type Outcome uint8

const (
	// OutcomeOK is a query that completed its search.
	OutcomeOK Outcome = iota
	// OutcomeCancelled is a query unwound by context cancellation or
	// deadline expiry mid-search.
	OutcomeCancelled
	// OutcomeShed is a query refused at pool admission (no Searcher
	// freed up before its context expired); it never searched.
	OutcomeShed
	// OutcomePanic is a query whose search panicked; its Searcher was
	// discarded and rebuilt.
	OutcomePanic
	// numOutcomes bounds the enum for per-outcome counters.
	numOutcomes
)

// String returns the outcome label used on /metrics and /debug/bfs.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeShed:
		return "shed"
	case OutcomePanic:
		return "panic"
	default:
		return "outcome?"
	}
}

// QuerySample is one query's telemetry deposit, handed to
// Telemetry.RecordQuery as the query finishes. PerLevel is borrowed
// from the recorder's pooled buffer: the flight recorder copies it only
// when the query is retained as slow, so passing it costs nothing.
type QuerySample struct {
	Root      uint32
	Start     time.Time
	Duration  time.Duration
	Levels    int
	Reached   int64
	Edges     int64
	Outcome   Outcome
	Algorithm string
	PerLevel  []LevelBreakdown
}

// QueryRecord is one entry of the flight recorder's ring: the
// QuerySample scalars plus, for queries at or above the slow threshold
// when they landed, the full per-level breakdown.
type QueryRecord struct {
	// Seq is the query's global sequence number (monotone, starts at 1);
	// the ring holds the trailing window of sequence numbers.
	Seq       uint64
	Root      uint32
	Start     time.Time
	Duration  time.Duration
	Levels    int
	Reached   int64
	Edges     int64
	Outcome   Outcome
	Algorithm string
	// Captured reports whether PerLevel was retained; fast queries keep
	// only the scalars above.
	Captured bool
	// PerLevel is the per-level breakdown — counters and per-phase
	// worker nanoseconds — of a captured slow query.
	PerLevel []LevelBreakdown
}

// flightRefreshEvery is how many recorded queries pass between
// recomputations of the adaptive slow threshold.
const flightRefreshEvery = 64

// FlightRecorder is a fixed-size ring of the most recent queries. Every
// query deposits its scalar record; only queries at or above the
// adaptive threshold — the histogram's current p99 — retain their full
// per-level breakdown, so the ring stays cheap to feed (one short mutex
// hold, no allocation for captures of up to flightCaptureLevels levels:
// slow captures copy into each slot's reserved PerLevel room) while the
// pathological queries arrive with their phase anatomy attached.
//
// The threshold starts at 0 (capture everything) and adapts after each
// flightRefreshEvery recordings, so a cold recorder documents its first
// queries fully and a warm one spends capture space only on the tail.
type FlightRecorder struct {
	mu           sync.Mutex
	ring         []QueryRecord
	seq          uint64
	threshold    int64 // ns; current capture threshold
	sinceRefresh int
	hist         *Histogram // threshold source; may be nil (threshold stays put)
}

// flightCaptureLevels is the per-level capture room every ring slot
// reserves when the recorder is built: a full BFS of an R-MAT scale-18
// graph takes 6-7 levels, a bounded query fewer, so a slow query's
// capture copies into reserved memory rather than allocating on the
// serving path. A deeper capture grows its slot once. At 144 B per
// LevelBreakdown the reservation is 1,152 B per slot, 288 KiB for the
// default 256-slot ring.
const flightCaptureLevels = 8

// newFlightRecorder builds a recorder of the given ring size whose
// adaptive threshold tracks hist's p99. The slots' capture room comes
// from one allocation, each slot capped to its own share of it.
func newFlightRecorder(size int, hist *Histogram) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	ring := make([]QueryRecord, size)
	room := make([]LevelBreakdown, size*flightCaptureLevels)
	for i := range ring {
		lo := i * flightCaptureLevels
		ring[i].PerLevel = room[lo : lo : lo+flightCaptureLevels]
	}
	return &FlightRecorder{ring: ring, hist: hist}
}

// note deposits one query into the ring. Called by Telemetry.RecordQuery.
func (r *FlightRecorder) note(s QuerySample) {
	r.mu.Lock()
	r.seq++
	slot := &r.ring[(r.seq-1)%uint64(len(r.ring))]
	perLevel := slot.PerLevel // keep the slot's capacity for reuse
	*slot = QueryRecord{
		Seq:       r.seq,
		Root:      s.Root,
		Start:     s.Start,
		Duration:  s.Duration,
		Levels:    s.Levels,
		Reached:   s.Reached,
		Edges:     s.Edges,
		Outcome:   s.Outcome,
		Algorithm: s.Algorithm,
	}
	if int64(s.Duration) >= r.threshold && len(s.PerLevel) > 0 {
		slot.Captured = true
		slot.PerLevel = append(perLevel[:0], s.PerLevel...)
	} else {
		slot.PerLevel = perLevel[:0]
	}
	r.sinceRefresh++
	if r.sinceRefresh >= flightRefreshEvery {
		r.sinceRefresh = 0
		r.refreshThreshold()
	}
	r.mu.Unlock()
}

// refreshThreshold re-derives the capture threshold from the
// histogram's current p99. Called with r.mu held.
func (r *FlightRecorder) refreshThreshold() {
	if r.hist == nil {
		return
	}
	snap := r.hist.Snapshot()
	r.threshold = int64(snap.Quantile(0.99))
}

// Threshold returns the current slow-capture threshold.
func (r *FlightRecorder) Threshold() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.threshold)
}

// Records returns a copy of the ring's occupied entries, most recent
// first. PerLevel slices are deep-copied, so the result is safe to hold
// while recording continues.
func (r *FlightRecorder) Records() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seq
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	out := make([]QueryRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := r.ring[(r.seq-1-i)%uint64(len(r.ring))]
		if slot.Captured {
			slot.PerLevel = append([]LevelBreakdown(nil), slot.PerLevel...)
		} else {
			slot.PerLevel = nil
		}
		out = append(out, slot)
	}
	return out
}

// Slowest returns the k slowest queries currently in the ring, slowest
// first, with the same deep-copy guarantee as Records.
func (r *FlightRecorder) Slowest(k int) []QueryRecord {
	recs := r.Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Duration > recs[j].Duration })
	if k >= 0 && len(recs) > k {
		recs = recs[:k]
	}
	return recs
}
