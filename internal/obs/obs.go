// Package obs is the observability layer of the BFS engine: per-worker,
// per-level phase timers and counters deposited in cache-line-padded
// worker slots, folded once per level at the level barrier into one
// LevelBreakdown record that feeds a structured trace and the serving
// telemetry hub, whose per-query samples are the one input to the live
// metrics publishable via expvar.
//
// The design rule is the one the hot loop lives by: workers never share
// a cache line and never execute an atomic operation on behalf of
// observability. Each worker writes only its own padded slot; the
// coordinator elected at the level's second barrier folds all slots.
// Slots are double-buffered by level parity, counters and phases alike,
// so the fold of level L can overlap the first writes of level L+1
// without a race.
//
// When nothing observes a run the collector is a nil pointer and every
// recording method is a nil-receiver no-op, so the only cost on the hot
// path is a handful of predictable nil-checks per level — no atomics,
// no allocation, no time.Now calls.
package obs

import (
	"time"
	"unsafe"
)

// Phase labels one portion of a worker's time within a BFS level.
type Phase uint8

const (
	// PhaseLocalScan is top-down expansion of the worker's share of the
	// current frontier (paper Algorithm 3 phase 1, or the whole level in
	// the single-socket tiers).
	PhaseLocalScan Phase = iota
	// PhaseQueueDrain is draining the socket's inter-socket channel
	// (paper Algorithm 3 phase 2).
	PhaseQueueDrain
	// PhaseBarrierWait is time parked at level barriers waiting for
	// stragglers — the load-imbalance signal.
	PhaseBarrierWait
	// PhaseFrontierBuild is constructing the frontier bitmap before a
	// bottom-up sweep (direction-optimizing tier only).
	PhaseFrontierBuild
	// PhaseBottomUpScan is the bottom-up sweep over unvisited vertices
	// (direction-optimizing tier only).
	PhaseBottomUpScan
	// NumPhases bounds the Phase enum; LevelBreakdown.Phases is indexed
	// by Phase.
	NumPhases
)

// String returns the phase name used in Chrome traces and tables.
func (p Phase) String() string {
	switch p {
	case PhaseLocalScan:
		return "local-scan"
	case PhaseQueueDrain:
		return "queue-drain"
	case PhaseBarrierWait:
		return "barrier-wait"
	case PhaseFrontierBuild:
		return "frontier-build"
	case PhaseBottomUpScan:
		return "bottom-up-scan"
	default:
		return "phase?"
	}
}

// Span is one contiguous stretch of a worker's timeline. Start is the
// offset from the start of the run.
type Span struct {
	Level int
	Phase Phase
	Start time.Duration
	Dur   time.Duration
}

// Counters are a level's tallies. Each worker counts its share of a
// level in a local Counters and deposits it once, at the level's end,
// into its WorkerRec; Collector.EndLevel sums the deposits.
type Counters struct {
	// Frontier is the number of vertices expanded in the level.
	Frontier int64
	// Edges is the number of adjacency entries scanned.
	Edges int64
	// BitmapReads counts plain (non-atomic) bitmap probes.
	BitmapReads int64
	// AtomicOps counts atomic read-and-set operations attempted.
	AtomicOps int64
	// RemoteSends counts tuples sent over inter-socket channels.
	RemoteSends int64
	// MaxWorkerEdges is the largest single worker's share of Edges —
	// the numerator of the level's load-imbalance factor
	// (MaxWorkerEdges · workers / Edges; 1.0 is perfect balance).
	// EndLevel sets it; workers leave it zero.
	MaxWorkerEdges int64
	// Steals counts chunks claimed from sibling socket queues by
	// early-finishing workers (multi-socket tier, edge budgeting on).
	Steals int64
}

// add sums every count of o into c.
func (c *Counters) add(o *Counters) {
	c.Frontier += o.Frontier
	c.Edges += o.Edges
	c.BitmapReads += o.BitmapReads
	c.AtomicOps += o.AtomicOps
	c.RemoteSends += o.RemoteSends
	c.MaxWorkerEdges += o.MaxWorkerEdges
	c.Steals += o.Steals
}

// LevelBreakdown is the one per-level record of a BFS run: the counter
// totals plus per-phase worker-time sums (a phase entry is the sum over
// all workers, so it can exceed Duration on multi-worker runs).
// Collector.EndLevel folds it once per level, and Result.PerLevel,
// Trace.Levels and the flight recorder carry that same record; the
// telemetry hub sums a query's records into its Metrics.
type LevelBreakdown struct {
	Level int
	// Workers is the number of workers that ran the level — the
	// denominator that turns MaxWorkerEdges into an imbalance factor
	// (stamped by EndLevel, so breakdowns detached from their Trace,
	// e.g. in the flight recorder, remain self-contained).
	Workers int
	// Start is the level's offset from the start of the run; Duration
	// its wall-clock time, from the end of the previous level's fold to
	// the end of this one's (so it includes both level barriers).
	Start    time.Duration
	Duration time.Duration
	Counters
	// RemoteBatches and RemoteTuples count inter-socket channel flushes
	// issued by workers during the level.
	RemoteBatches int64
	RemoteTuples  int64
	// Phases[p] is the total worker time spent in phase p.
	Phases [NumPhases]time.Duration
}

// add sums every tally of o into b: counters, durations, remote flushes
// and phases.
func (b *LevelBreakdown) add(o *LevelBreakdown) {
	b.Duration += o.Duration
	b.Counters.add(&o.Counters)
	b.RemoteBatches += o.RemoteBatches
	b.RemoteTuples += o.RemoteTuples
	for p := range b.Phases {
		b.Phases[p] += o.Phases[p]
	}
}

// Imbalance returns the level's edge-load imbalance factor: the
// straggler's edge share (MaxWorkerEdges) over the mean per-worker
// share (Edges/Workers). 1.0 is perfect balance; Workers is an upper
// bound (one worker scanned everything). Zero when the level carries no
// edges or the breakdown predates imbalance tracking.
func (b *LevelBreakdown) Imbalance() float64 {
	if b.Edges <= 0 || b.Workers <= 0 {
		return 0
	}
	return float64(b.MaxWorkerEdges) * float64(b.Workers) / float64(b.Edges)
}

// ChannelSample is one level's view of one inter-socket channel.
type ChannelSample struct {
	Level  int
	Socket int
	// Tuples and Batches are the tuples and SendBatch flushes that
	// crossed the channel during the level.
	Tuples  int64
	Batches int64
	// MaxLen is the channel's occupancy high-water mark during the
	// level; MaxBatch the largest single flush.
	MaxLen   int
	MaxBatch int
}

const cacheLine = 64

// workerState is the unpadded per-worker recording state. The level
// slots are double-buffered by level parity: workers write slot L&1
// during level L, the coordinator folds slot L&1 at the level's closing
// barrier while workers may already be writing slot (L+1)&1. A slot is
// a LevelBreakdown of which the worker fills only the tallies — its
// counters, remote flushes and phase times. The run's trace flag and
// origin are copied in (rather than read through a pointer to the
// collector) so the pad below is not a recursive size.
type workerState struct {
	traceOn bool
	origin  time.Time
	level   int
	slots   [2]LevelBreakdown
	spans   []Span
}

// WorkerRec records one worker's counters and phases. All methods are
// no-ops on a nil receiver, so the hot path carries only the nil-check.
type WorkerRec struct {
	workerState
	_ [(cacheLine - unsafe.Sizeof(workerState{})%cacheLine) % cacheLine]byte
}

// PhaseStart stamps the beginning of a phase. On a nil receiver it
// returns the zero time without touching the clock.
func (r *WorkerRec) PhaseStart() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// PhaseEnd closes a phase opened with PhaseStart, crediting its
// duration to the worker's current-level slot and appending a timeline
// span when full tracing is on.
func (r *WorkerRec) PhaseEnd(p Phase, start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	r.slots[r.level&1].Phases[p] += d
	if r.traceOn {
		r.spans = append(r.spans, Span{Level: r.level, Phase: p, Start: start.Sub(r.origin), Dur: d})
	}
}

// RemoteBatch records a flush of tuples into an inter-socket channel.
func (r *WorkerRec) RemoteBatch(tuples int) {
	if r == nil || tuples == 0 {
		return
	}
	s := &r.slots[r.level&1]
	s.RemoteBatches++
	s.RemoteTuples += int64(tuples)
}

// AddCounters deposits the worker's counts for the level in progress.
// Call it before the level's first closing barrier.
func (r *WorkerRec) AddCounters(c Counters) {
	if r == nil {
		return
	}
	r.slots[r.level&1].Counters.add(&c)
}

// NextLevel advances the worker's level counter. Call it after the
// level's closing barrier, once all of the level's phases are recorded.
func (r *WorkerRec) NextLevel() {
	if r == nil {
		return
	}
	r.level++
}

// Config configures a Collector.
type Config struct {
	// Workers is the number of worker goroutines.
	Workers int
	// Sockets is the number of logical sockets (for channel tracks).
	Sockets int
	// Algorithm names the BFS tier, for trace metadata.
	Algorithm string
	// Trace retains the full structured trace (timelines, level
	// breakdowns, channel samples) for Finish to return.
	Trace bool
}

// Collector coordinates per-worker recording for one BFS run and folds
// each level into its one LevelBreakdown. A nil *Collector is valid and
// disables everything.
type Collector struct {
	origin     time.Time
	levelStart time.Time
	trace      *Trace
	workers    []WorkerRec
	// levels holds the run's folded records, one per completed level;
	// its backing array is reused by the next Reset.
	levels []LevelBreakdown
}

// NewCollector builds a collector for one run; see Reset.
func NewCollector(cfg Config) *Collector {
	c := &Collector{}
	c.Reset(cfg)
	return c
}

// Reset arms the collector for a new run, reusing the per-worker padded
// slots, each worker's span backing array and the level records, so a
// warm observed search allocates nothing here. The zero Collector is
// ready for Reset. It stamps the run origin, so call it immediately
// before the search starts.
func (c *Collector) Reset(cfg Config) {
	if cap(c.workers) < cfg.Workers {
		c.workers = make([]WorkerRec, cfg.Workers)
	}
	c.workers = c.workers[:cfg.Workers]
	c.origin = time.Now()
	c.levelStart = c.origin
	c.levels = c.levels[:0]
	c.trace = nil
	if cfg.Trace {
		c.trace = &Trace{
			Workers:   cfg.Workers,
			Sockets:   cfg.Sockets,
			Algorithm: cfg.Algorithm,
		}
	}
	for i := range c.workers {
		ws := &c.workers[i].workerState
		*ws = workerState{traceOn: cfg.Trace, origin: c.origin, spans: ws.spans[:0]}
	}
}

// Worker returns worker w's recorder, or nil on a nil collector.
func (c *Collector) Worker(w int) *WorkerRec {
	if c == nil {
		return nil
	}
	return &c.workers[w]
}

// CreditFrontier adds f to the frontier count of the level in progress.
// The direction-optimizing coordinator uses it for bottom-up levels,
// where workers expand the frontier without popping it. Call it from
// the coordinator elected at the level's first closing barrier, after
// every worker's AddCounters.
func (c *Collector) CreditFrontier(f int64) {
	if c == nil {
		return
	}
	c.workers[0].slots[len(c.levels)&1].Frontier += f
}

// AddChannelSample appends one channel's per-level sample for the level
// currently being folded. Call it from the closing-barrier coordinator,
// before EndLevel.
func (c *Collector) AddChannelSample(socket int, tuples, batches int64, maxLen, maxBatch int) {
	if c == nil || c.trace == nil {
		return
	}
	c.trace.Channels = append(c.trace.Channels, ChannelSample{
		Level:    len(c.levels),
		Socket:   socket,
		Tuples:   tuples,
		Batches:  batches,
		MaxLen:   maxLen,
		MaxBatch: maxBatch,
	})
}

// EndLevel folds every worker's current-parity slot — counters, remote
// flushes and phases, in one pass — into the level's LevelBreakdown,
// clears the slots for reuse two levels later, stamps the level's
// duration and appends the record to Levels.
//
// It must be called from the coordinator elected at the level's closing
// barrier — the window in which every worker has finished writing the
// level's slots and is at most writing the other parity.
func (c *Collector) EndLevel() {
	if c == nil {
		return
	}
	now := time.Now()
	level := len(c.levels)
	b := LevelBreakdown{Level: level, Workers: len(c.workers)}
	for i := range c.workers {
		s := &c.workers[i].slots[level&1]
		b.add(s)
		// The straggler's edge share: the numerator of the level's
		// load-imbalance factor (mean share is Edges over workers).
		b.MaxWorkerEdges = max(b.MaxWorkerEdges, s.Edges)
		*s = LevelBreakdown{}
	}
	b.Start, b.Duration = c.levelStart.Sub(c.origin), now.Sub(c.levelStart)
	c.levelStart = now
	c.levels = append(c.levels, b)
}

// Levels returns the records of the levels folded so far. The slice is
// the collector's own: it stays valid until the next Reset. Nil on a
// nil collector.
func (c *Collector) Levels() []LevelBreakdown {
	if c == nil {
		return nil
	}
	return c.levels
}

// Finish assembles and returns the structured trace, or nil when full
// tracing was not requested. Call it only after every worker has
// exited. The level records and timelines are copied out of the
// collector, so the returned Trace is self-contained: it stays valid —
// and safe to export from another goroutine — while the collector is
// Reset and reused by subsequent runs.
func (c *Collector) Finish() *Trace {
	if c == nil || c.trace == nil {
		return nil
	}
	c.trace.Levels = append([]LevelBreakdown(nil), c.levels...)
	c.trace.Timelines = make([][]Span, len(c.workers))
	for i := range c.workers {
		c.trace.Timelines[i] = append([]Span(nil), c.workers[i].spans...)
	}
	return c.trace
}
