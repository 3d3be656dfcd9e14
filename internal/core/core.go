// Package core implements the paper's contribution: level-synchronous
// parallel breadth-first search for multicore shared-memory machines,
// in the three refinement tiers of the SC'10 paper.
//
//   - AlgSequential: the textbook serial BFS, the baseline every
//     parallel variant is judged against.
//   - AlgParallelSimple (paper Algorithm 1): shared current/next queues,
//     visitation claimed with an atomic compare-and-swap on the parent
//     array.
//   - AlgSingleSocket (paper Algorithm 2): adds the visited bitmap
//     (shrinking the random working set ~8x versus the parent array) and
//     the double-checked claim — a plain bitmap probe before the atomic
//     read-and-set, which eliminates nearly all lock-prefixed operations
//     in late levels (paper Fig. 4).
//   - AlgMultiSocket (paper Algorithm 3): partitions graph, parent array
//     and bitmap by socket; vertices discovered on a remote socket
//     travel through batched FastForward+TicketLock channels and are
//     processed by their owning socket in a second phase per level.
//
// The socket structure is logical, driven by a topology.Machine; on real
// multi-socket hardware with one OS thread per worker it reproduces the
// paper's locality story, and under any GOMAXPROCS it remains correct.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/topology"
)

// NoParent marks an unvisited vertex in the parent array (the paper's
// P[v] = ∞).
const NoParent = ^uint32(0)

// Algorithm selects a BFS implementation tier.
type Algorithm int

const (
	// AlgAuto picks AlgSequential for 1 thread, AlgSingleSocket when the
	// run fits one socket, and AlgMultiSocket otherwise — the paper's
	// "best performing algorithm for each thread configuration".
	AlgAuto Algorithm = iota
	// AlgSequential is the serial baseline.
	AlgSequential
	// AlgParallelSimple is paper Algorithm 1.
	AlgParallelSimple
	// AlgSingleSocket is paper Algorithm 2.
	AlgSingleSocket
	// AlgMultiSocket is paper Algorithm 3.
	AlgMultiSocket
	// AlgDirectionOptimizing is the top-down/bottom-up hybrid — an
	// extension beyond the paper (Beamer et al.'s direction-optimizing
	// BFS) that eliminates atomics entirely in the dense middle levels.
	// It needs in-edges: a graph flagged Symmetric (graph.Undirected)
	// serves as its own; otherwise supply the transpose via
	// Options.Transpose, or NewSearcher computes it once.
	AlgDirectionOptimizing
)

// String returns the algorithm's short name as used in reports.
func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgSequential:
		return "sequential"
	case AlgParallelSimple:
		return "parallel-simple"
	case AlgSingleSocket:
		return "single-socket"
	case AlgMultiSocket:
		return "multi-socket"
	case AlgDirectionOptimizing:
		return "direction-optimizing"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a BFS run. The zero value requests AlgAuto with
// GOMAXPROCS workers on a single-socket logical machine.
type Options struct {
	// Algorithm selects the implementation tier; AlgAuto (zero) picks by
	// thread count and machine shape.
	Algorithm Algorithm
	// Threads is the number of worker goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Threads int
	// Machine is the logical topology used for partitioning and channel
	// wiring. The zero value means a single socket holding all threads.
	Machine topology.Machine
	// BatchSize is the number of tuples buffered per destination socket
	// before a channel send, and the receive buffer size (paper: batching
	// amortizes the ticket lock to ~30 ns/vertex). 0 means 64.
	BatchSize int
	// DisableDoubleCheck forces the atomic read-and-set on every
	// neighbour, skipping the plain bitmap probe. Ablation knob for the
	// paper's Fig. 5 "impact of optimizations". In the multi-socket
	// tier it also restores the paper-literal send path: every
	// neighbour owned by another socket is sent to it, where the double
	// check sends only those whose visited bit looks clear.
	DisableDoubleCheck bool
	// Instrument returns each level's folded record in
	// Result.PerLevel: counters (bitmap probes, atomic operations,
	// frontier sizes, remote sends), the data behind the paper's Fig. 4,
	// plus per-phase worker times. It arms the obs collector, which
	// costs a few time.Now calls per worker per level and a few percent
	// of throughput.
	Instrument bool
	// Transpose supplies the in-edge graph for AlgDirectionOptimizing.
	// It is not needed when the graph is flagged Symmetric, which makes
	// the graph its own transpose; passing the graph itself also works
	// for a symmetric graph that is not flagged. When nil on an
	// unflagged graph, NewSearcher computes the transpose (O(n+m) time
	// and memory); a one-shot BFS pays that on every call. A serving
	// pool (mcbfs.Pool) hands it only to the Searchers of the graph it
	// was built with; when it is set, every later epoch gets its own
	// (nil for a graph flagged Symmetric, else one transpose the
	// epoch's Searchers share).
	Transpose *graph.Graph
	// MaxLevels stops the search after exploring that many levels
	// (level 0 is the root). 0 means unbounded. Depth-bounded
	// neighbourhood extraction (e.g. SSCA#2 kernel 3) uses this.
	MaxLevels int
	// PinThreads locks each worker goroutine to its OS thread and binds
	// that thread to CPU (worker index mod NumCPU) — the paper's thread
	// affinity discipline, available on Linux. Linux enumerates the
	// cores of socket 0 first, so the default mapping coincides with
	// the paper's Table I placement on typical hosts. Pinning failures
	// are ignored (the run proceeds unpinned).
	PinThreads bool
	// Trace retains the full structured trace — per-worker phase
	// timelines, per-level breakdowns, inter-socket channel samples —
	// in Result.Trace, exportable with Trace.WriteChromeTrace. Costs a
	// few time.Now calls per worker per level plus the span memory.
	// With no observer set (Instrument, Trace, Telemetry) the hot path
	// carries only per-level nil-checks; with any of them the workers
	// still execute no atomic operation for observation.
	Trace bool
	// Telemetry, when non-nil, receives one obs.QuerySample per
	// Search/SearchContext on a session: latency into the histogram, the
	// sums of its per-level records into the hub's Metrics, and the
	// query's scalars plus per-level phase breakdowns into the flight
	// recorder. Enabling it arms the obs collector every search
	// (the per-level breakdowns must be recorded before the query is
	// known to be slow), which costs a few time.Now calls per worker
	// per level; a warm search still performs zero heap allocations.
	Telemetry *obs.Telemetry
	// TelemetryShard selects the latency-histogram shard this session
	// records into. Give concurrent sessions distinct shards (as
	// mcbfs.Pool does) so their counter writes never contend.
	TelemetryShard int
	// Ordering relabels the graph into a locality-optimized vertex order
	// for the session's lifetime (see graph.Ordering). The permutation
	// is computed and applied once at construction; queries keep original
	// vertex ids — roots are translated in and parent arrays translated
	// back out in O(touched) per query — and a warm search still
	// performs zero heap allocations. OrderNatural (the zero value)
	// leaves the graph as-is.
	Ordering graph.Ordering
	// Reordered supplies a precomputed reordering (from graph.Reorder),
	// overriding Ordering: sessions sharing one Reordered share one
	// relabeled CSR instead of each paying the reorder, which is how
	// mcbfs.Pool runs all its Searchers on a single relabeled graph. It
	// must have been computed from this session's graph.
	Reordered *graph.Reordered
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.Machine.Sockets == 0 {
		o.Machine = topology.Generic(1, o.Threads, 1)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Algorithm == AlgAuto {
		switch {
		case o.Threads == 1:
			o.Algorithm = AlgSequential
		case o.Machine.SocketsForThreads(o.Threads) == 1:
			o.Algorithm = AlgSingleSocket
		default:
			o.Algorithm = AlgMultiSocket
		}
	}
	return o
}

// Result holds the output of a BFS run.
type Result struct {
	// Parents[v] is the BFS-tree parent of v, the root's parent is the
	// root itself, and unreached vertices hold NoParent.
	Parents []uint32
	// Root is the source vertex of the search.
	Root graph.Vertex
	// Reached is the number of vertices in the BFS tree (including the
	// root).
	Reached int64
	// EdgesTraversed is the paper's m_a: adjacency entries scanned
	// during the search (each edge leaving a reached vertex, counted
	// once).
	EdgesTraversed int64
	// Levels is the number of BFS levels, i.e. the eccentricity of the
	// root within its component plus one.
	Levels int
	// Duration is the wall-clock time of the search proper. It excludes
	// the reset of the session's pooled state before the search and the
	// translation of Parents into caller ids after it.
	Duration time.Duration
	// Algorithm is the tier that actually ran.
	Algorithm Algorithm
	// Threads is the worker count that actually ran.
	Threads int
	// PerLevel holds one folded record per level when
	// Options.Instrument was set — the same records the trace, the
	// telemetry hub and the flight recorder receive.
	PerLevel []obs.LevelBreakdown
	// Trace holds the structured trace when Options.Trace was set.
	Trace *obs.Trace
}

// EdgesPerSecond returns the paper's headline metric: m_a divided by
// the run's duration.
func (r *Result) EdgesPerSecond() float64 {
	s := r.Duration.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / s
}

// BFS explores g from root and returns the breadth-first tree. It is a
// convenience wrapper that creates a one-shot Searcher session, runs a
// single search, and tears the session down; Options selects the
// algorithm tier and its tuning knobs exactly as for NewSearcher.
// Callers issuing repeated searches over one graph should hold a
// Searcher instead and amortize the setup.
func BFS(g *graph.Graph, root graph.Vertex, opt Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if n := g.NumVertices(); int(root) >= n {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, n)
	}
	s, err := NewSearcher(g, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	r, err := s.Search(root, Query{})
	if err != nil {
		return nil, err
	}
	// The session is one-shot: its pooled arrays are never reused, so
	// ownership of Parents (and Trace/PerLevel) transfers to the caller
	// with a shallow copy of the Result.
	res := *r
	return &res, nil
}

// newParents allocates a parent array initialized to NoParent.
func newParents(n int) []uint32 {
	p := make([]uint32, n)
	fillNoParent(p)
	return p
}

// fillNoParent fills p with NoParent, in parallel for large arrays
// using the CSR builder's worker count. It runs once per session, and
// still dominates one-shot setup at large n.
func fillNoParent(p []uint32) {
	workers := graph.BuildParallelism()
	const serialCutoff = 1 << 17
	if workers <= 1 || len(p) < serialCutoff {
		for i := range p {
			p[i] = NoParent
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(p) * w / workers
		hi := len(p) * (w + 1) / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(q []uint32) {
			defer wg.Done()
			for i := range q {
				q[i] = NoParent
			}
		}(p[lo:hi])
	}
	wg.Wait()
}
