// Package mcbfs is a scalable breadth-first search library for
// multicore shared-memory machines, reproducing Agarwal, Petrini,
// Pasetto and Bader, "Scalable Graph Exploration on Multicore
// Processors" (SC 2010).
//
// The library explores directed graphs in compressed-sparse-row form
// with a level-synchronous parallel BFS in three tiers of refinement:
// a simple shared-queue algorithm, a single-socket algorithm with a
// visited bitmap and double-checked atomic claims, and a multi-socket
// algorithm that partitions the graph per socket and ships remote
// discoveries through batched lock-free channels. The appropriate tier
// is selected automatically from the thread count and machine shape.
//
// # Quick start
//
//	g, err := mcbfs.UniformGraph(1<<20, 16, 42) // 1M vertices, degree 16
//	if err != nil { ... }
//	res, err := mcbfs.BFS(g, 0, mcbfs.Options{})
//	if err != nil { ... }
//	fmt.Printf("reached %d vertices at %s\n",
//		res.Reached, mcbfs.FormatRate(res.EdgesPerSecond()))
//
// # Machine topology
//
// On a multi-socket host, describe the topology so the multi-socket
// tier can partition the graph and wire its channels:
//
//	opts := mcbfs.Options{
//		Threads: 16,
//		Machine: mcbfs.NehalemEP, // or mcbfs.Machine{...} for yours
//	}
//
// The topology is logical: it drives the partitioning of the graph,
// the queues and the channels by socket, which is what removes the
// cross-socket atomic traffic, and that effect follows the data layout.
// Options.PinThreads optionally pins as well: on Linux it binds worker
// i to CPU i mod NumCPU.
package mcbfs

import (
	"io"

	"mcbfs/internal/algo"
	"mcbfs/internal/core"
	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/graph500"
	"mcbfs/internal/obs"
	"mcbfs/internal/ssca2"
	"mcbfs/internal/stats"
	"mcbfs/internal/topology"
)

// Graph is an immutable directed graph in CSR form.
type Graph = graph.Graph

// Vertex identifies a graph vertex.
type Vertex = graph.Vertex

// Edge is a directed edge.
type Edge = graph.Edge

// Options configures a BFS run; the zero value uses GOMAXPROCS workers
// and automatic algorithm selection.
type Options = core.Options

// Result is the outcome of a BFS run.
type Result = core.Result

// LevelStats is one level's record in Result.PerLevel (enable with
// Options.Instrument): the same LevelBreakdown that traces, Tracer
// hooks and the flight recorder carry, under its older name.
type LevelStats = obs.LevelBreakdown

// Algorithm selects a BFS implementation tier.
type Algorithm = core.Algorithm

// Tracer receives each level's start and folded record from a BFS run
// (attach via Options.Tracer). Its hooks fire as the run starts and at
// each level barrier, one at a time per search, never from a worker; a
// Tracer shared by concurrent searches must be safe for concurrent use.
type Tracer = obs.Tracer

// TracerFuncs adapts plain functions to the Tracer interface.
type TracerFuncs = obs.TracerFuncs

// Trace is the structured record of a traced BFS run (enable with
// Options.Trace, read from Result.Trace); export it with
// Trace.WriteChromeTrace for Perfetto or chrome://tracing.
type Trace = obs.Trace

// Span is one phase of one worker's timeline within a Trace.
type Span = obs.Span

// LevelBreakdown is one level's folded counters and phase times.
type LevelBreakdown = obs.LevelBreakdown

// Phase labels a portion of a worker's time within a level.
type Phase = obs.Phase

// Metrics is a set of live cumulative work counters publishable via
// expvar. Its per-level counters are fed by Metrics.Tracer(), which
// reads each level's folded record at the level barrier (so attaching
// it adds no atomic operation to the workers); its batch and swap
// totals by the Telemetry hub it is attached to; its pool counters by
// a Pool whose hub it is (PoolOptions.Metrics). Per-query outcomes are
// not kept here: read them with Telemetry.OutcomeCount.
type Metrics = obs.Metrics

// Telemetry is the serving telemetry hub: a lock-free sharded latency
// histogram, per-outcome totals and rolling-window counters (exactly
// one outcome per query), and a flight recorder that retains the
// slowest recent queries with their per-level phase breakdowns. It
// counts the cumulative work it sees (batch traversals, hot-swaps)
// into its Metrics (Telemetry.Metrics). Attach one to a Pool
// (PoolOptions.Telemetry, or implicitly via PoolOptions.Metrics or
// ServeMonitor) or to a Searcher (Options.Telemetry), and expose it
// over HTTP with Telemetry.Handler — Prometheus text format at
// /metrics, JSON status at /debug/bfs.
type Telemetry = obs.Telemetry

// TelemetryOptions configures NewTelemetry.
type TelemetryOptions = obs.TelemetryOptions

// NewTelemetry builds a telemetry hub; share one across everything
// that should aggregate into the same histogram and status page.
func NewTelemetry(opt TelemetryOptions) *Telemetry { return obs.NewTelemetry(opt) }

// Histogram is a lock-free sharded log-bucketed latency histogram
// (≤12.5% relative bucket width); the building block Telemetry uses,
// exported for standalone latency measurement.
type Histogram = obs.Histogram

// NewHistogram builds a histogram with the given number of
// contention-free shards (one per recording goroutine).
func NewHistogram(shards int) *Histogram { return obs.NewHistogram(shards) }

// QuerySample is one query's telemetry record as handed to
// Telemetry.RecordQuery; QueryRecord is its retained flight-recorder
// form.
type (
	QuerySample = obs.QuerySample
	QueryRecord = obs.QueryRecord
)

// Outcome classifies how a query ended in telemetry.
type Outcome = obs.Outcome

// Query outcomes.
const (
	OutcomeOK        = obs.OutcomeOK
	OutcomeCancelled = obs.OutcomeCancelled
	OutcomeShed      = obs.OutcomeShed
	OutcomePanic     = obs.OutcomePanic
)

// Phases of a worker's timeline.
const (
	PhaseLocalScan     = obs.PhaseLocalScan
	PhaseQueueDrain    = obs.PhaseQueueDrain
	PhaseBarrierWait   = obs.PhaseBarrierWait
	PhaseFrontierBuild = obs.PhaseFrontierBuild
	PhaseBottomUpScan  = obs.PhaseBottomUpScan
)

// MultiTracer fans tracer callbacks out to several tracers.
func MultiTracer(tracers ...Tracer) Tracer { return obs.MultiTracer(tracers...) }

// Machine describes a shared-memory system's shape.
type Machine = topology.Machine

// RMATParams are the R-MAT generator's quadrant probabilities.
type RMATParams = gen.RMATParams

// Algorithm tiers; see the package documentation of internal/core.
const (
	AlgAuto                = core.AlgAuto
	AlgSequential          = core.AlgSequential
	AlgParallelSimple      = core.AlgParallelSimple
	AlgSingleSocket        = core.AlgSingleSocket
	AlgMultiSocket         = core.AlgMultiSocket
	AlgDirectionOptimizing = core.AlgDirectionOptimizing
)

// NoParent marks an unvisited vertex in Result.Parents.
const NoParent = core.NoParent

// Predefined machine topologies (the paper's Table I).
var (
	NehalemEP = topology.NehalemEP
	NehalemEX = topology.NehalemEX
)

// GenericMachine returns a topology with the given shape for hosts not
// covered by the predefined ones.
func GenericMachine(sockets, coresPerSocket, threadsPerCore int) Machine {
	return topology.Generic(sockets, coresPerSocket, threadsPerCore)
}

// GTgraphDefaults are the R-MAT parameters of the GTgraph suite used by
// the paper; Graph500Params the later Graph500 parameterization.
var (
	GTgraphDefaults = gen.GTgraphDefaults
	Graph500Params  = gen.Graph500Params
)

// BFS explores g from root and returns the breadth-first tree. Each
// call sets up and tears down a one-shot search session; callers
// issuing repeated searches over one graph should hold a Searcher
// instead and amortize the setup.
func BFS(g *Graph, root Vertex, opt Options) (*Result, error) {
	return core.BFS(g, root, opt)
}

// Searcher is a reusable BFS session: a persistent worker pool plus
// pooled per-search state sized to the bound graph, giving warm
// searches zero per-search setup allocations and an O(touched) reset
// instead of an O(n) reinitialization. Create one with NewSearcher,
// run queries with Searcher.BFS, Searcher.Search or — for cancellable
// / deadline-bounded queries — Searcher.SearchContext, release the
// pool with Close. A Searcher serves one search at a time; use one per
// concurrent query stream, or a Pool to multiplex many callers over a
// fixed set of warm sessions.
type Searcher = core.Searcher

// Query bounds one search's depth on a Searcher (MaxLevels); the zero
// value reruns the session's configuration. The algorithm tier is the
// session's, fixed by NewSearcher.
type Query = core.Query

// NewSearcher builds a reusable search session over g. Options selects
// the tier and tuning knobs exactly as for BFS:
//
//	s, err := mcbfs.NewSearcher(g, mcbfs.Options{})
//	if err != nil { ... }
//	defer s.Close()
//	for _, root := range roots {
//		res, err := s.BFS(root)
//		...
//	}
func NewSearcher(g *Graph, opt Options) (*Searcher, error) {
	return core.NewSearcher(g, opt)
}

// BatchSearcher is a reusable multi-source BFS session: up to 64
// single-source searches ("lanes") advanced by one shared traversal,
// so each pass over a vertex's adjacency serves every lane whose
// frontier contains it — N concurrent queries over one graph no longer
// pay N full edge scans. Like Searcher it is a persistent worker pool
// with pooled state and an O(touched) reset; a warm Search performs no
// per-batch heap allocation. Create one with NewBatchSearcher, run
// batches with Search / SearchContext / SearchLanes (per-lane
// contexts), release with Close. For transparent batching of a
// concurrent single-query stream, see PoolOptions.Batching instead.
type BatchSearcher = core.BatchSearcher

// BatchOptions configures a BatchSearcher (lane width, workers,
// telemetry); the zero value is a 64-lane engine with GOMAXPROCS
// workers.
type BatchOptions = core.BatchOptions

// BatchResult is one batch's outcome: per-lane scalars plus extraction
// methods (ParentOf, ExtractParents, SeenMask) over the session's
// pooled lane state. Valid only until the next Search or Close.
type BatchResult = core.BatchResult

// BatchTrees is BatchQuery's detached result: per-lane parent arrays
// and scalars that outlive the session.
type BatchTrees = core.BatchTrees

// MaxBatchLanes is the widest batch one traversal can carry (the lane
// words are 64 bits).
const MaxBatchLanes = core.MaxLanes

// NewBatchSearcher builds a reusable MS-BFS session over g:
//
//	b, err := mcbfs.NewBatchSearcher(g, mcbfs.BatchOptions{})
//	if err != nil { ... }
//	defer b.Close()
//	res, err := b.Search(roots) // up to 64 roots, one lane each
func NewBatchSearcher(g *Graph, opt BatchOptions) (*BatchSearcher, error) {
	return core.NewBatchSearcher(g, opt)
}

// BatchQuery runs one multi-source batch — up to 64 roots, one BFS
// lane each — in a single shared traversal and returns every lane's
// detached parent array. It is the one-shot convenience form; callers
// issuing repeated batches should hold a BatchSearcher and amortize
// the setup.
func BatchQuery(g *Graph, roots []Vertex, opt BatchOptions) (*BatchTrees, error) {
	return core.BatchQuery(g, roots, opt)
}

// ValidateTree checks that parents encodes a correct BFS tree of g
// rooted at root (reachability, parent edges, and breadth-first
// depths).
func ValidateTree(g *Graph, root Vertex, parents []uint32) error {
	return core.ValidateTree(g, root, parents)
}

// TreeDepths returns each vertex's depth in the parent tree, or
// NoDepth for unreached vertices and for those whose parent chain does
// not lead to root (every vertex, when root is out of range).
func TreeDepths(parents []uint32, root Vertex) []int32 {
	return core.TreeDepths(parents, root)
}

// NoDepth marks unreached vertices in TreeDepths output.
const NoDepth = core.NoDepth

// Ordering selects a locality-optimized vertex ordering: a relabeling
// of the graph that packs vertices likely to be touched together into
// adjacent ids, improving cache behaviour of the per-vertex state
// (parents, visited bitmap) during traversal. Set Options.Ordering (or
// PoolOptions.Search.Ordering) and the session relabels the graph once
// at construction; queries keep speaking original vertex ids — roots
// are translated in and, for callers that read them, parent arrays
// translated back out in O(touched) per query, with warm queries still
// allocation-free.
type Ordering = graph.Ordering

// Vertex orderings.
const (
	// OrderNatural keeps the graph's construction-time ids (the
	// default; no relabeling, no translation).
	OrderNatural = graph.OrderNatural
	// OrderDegree sorts vertices by descending out-degree.
	OrderDegree = graph.OrderDegree
	// OrderDegreeGroup packs high-degree hubs into a cache-resident
	// prefix and keeps the low-degree tail in natural order.
	OrderDegreeGroup = graph.OrderDegreeGroup
	// OrderBFS renumbers by BFS level from a high-degree seed
	// (RCM-style), so frontier neighbours stay close.
	OrderBFS = graph.OrderBFS
)

// ParseOrdering maps a CLI-style name ("natural", "degree", "dbg",
// "rcm") to an Ordering.
func ParseOrdering(s string) (Ordering, error) { return graph.ParseOrdering(s) }

// Reordered is the outcome of relabeling a graph under an Ordering:
// the relabeled graph, the permutation pair, timings, and hub-prefix
// stats. Compute one with Reorder and share it across sessions via
// Options.Reordered to pay the relabeling once.
type Reordered = graph.Reordered

// Reorder relabels g under the given ordering. Natural order returns a
// trivial Reordered sharing g.
func Reorder(g *Graph, o Ordering) (*Reordered, error) { return g.Reorder(o) }

// NewGraph builds a graph with n vertices from an edge list.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// NewGraphFromAdjacency builds a graph from explicit adjacency lists.
func NewGraphFromAdjacency(adj [][]Vertex) (*Graph, error) {
	return graph.FromAdjacency(adj)
}

// NewGraphFromArrays builds a graph with n vertices from parallel
// source/target arrays — the natural output shape of edge generators,
// fed straight to the counting-sort CSR builder without materializing
// an []Edge.
func NewGraphFromArrays(n int, srcs, dsts []Vertex) (*Graph, error) {
	return graph.FromArrays(n, srcs, dsts)
}

// SetBuildParallelism caps the worker count used by the parallel CSR
// construction kernels (NewGraph, Transpose, Undirected, Relabel, and
// the generators). 0 restores the default, GOMAXPROCS; 1 forces the
// serial builder. Parallel and serial builds produce byte-identical
// graphs.
func SetBuildParallelism(p int) { graph.SetBuildParallelism(p) }

// BuildParallelism reports the effective CSR construction worker count.
func BuildParallelism() int { return graph.BuildParallelism() }

// LoadGraph reads a graph from a file written by (*Graph).Save,
// discarding any ordering metadata a version-2 file carries.
func LoadGraph(path string) (*Graph, error) {
	return graph.Load(path)
}

// FileMeta is the ordering metadata carried by version-2 graph files:
// the Ordering the stored CSR layout was produced by, and optionally
// the inverse permutation back to original vertex ids.
type FileMeta = graph.FileMeta

// LoadGraphMeta reads a graph together with its ordering metadata (nil
// for files written without any, including all version-1 files).
func LoadGraphMeta(path string) (*Graph, *FileMeta, error) {
	return graph.LoadMeta(path)
}

// UniformGraph generates a uniformly random directed graph with n
// vertices of out-degree degree (the paper's "uniformly random"
// workload).
func UniformGraph(n, degree int, seed uint64) (*Graph, error) {
	return gen.Uniform(n, degree, seed)
}

// RMATGraph generates a scale-free R-MAT graph with 2^scale vertices
// and m edges (the paper's GTgraph workload).
func RMATGraph(scale int, m int64, p RMATParams, seed uint64) (*Graph, error) {
	return gen.RMAT(scale, m, p, seed)
}

// SSCA2Graph generates an SSCA#2-style clustered graph.
func SSCA2Graph(n, maxCliqueSize int, interCliqueFraction float64, seed uint64) (*Graph, error) {
	return gen.SSCA2(n, maxCliqueSize, interCliqueFraction, seed)
}

// GridGraph generates a rows x cols grid with 4- or 8-connectivity.
func GridGraph(rows, cols, conn int) (*Graph, error) {
	return gen.Grid(rows, cols, conn)
}

// FormatRate renders an edges-per-second rate in the paper's units.
func FormatRate(eps float64) string { return stats.FormatRate(eps) }

// ReadDIMACS reads a graph in DIMACS .gr format (the format the
// GTgraph suite emits).
func ReadDIMACS(r io.Reader) (*Graph, error) { return graph.ReadDIMACS(r) }

// ReadEdgeList reads a plain 0-based "src dst" edge list, optionally
// preceded by a "# vertices <n>" header.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// Components is the result of a connected-components run.
type Components = algo.Components

// ConnectedComponents labels the weakly connected components of g —
// the community-analysis primitive the paper's introduction motivates.
// Candidate component roots are flooded up to MaxBatchLanes at a time
// through a shared MS-BFS traversal, so the long tail of small
// components costs a fraction of the adjacency passes repeated BFS
// would pay. Pass symmetric=true when g already contains both
// directions of every edge.
func ConnectedComponents(g *Graph, symmetric bool, opt Options) (*Components, error) {
	return algo.ConnectedComponents(g, symmetric, opt)
}

// ShortestPath returns a minimum-hop path from s to t (both endpoints
// included), or ok=false if t is unreachable.
func ShortestPath(g *Graph, s, t Vertex, opt Options) (path []Vertex, ok bool, err error) {
	return algo.ShortestPath(g, s, t, opt)
}

// Distance returns the hop distance from s to t, or -1 if unreachable.
func Distance(g *Graph, s, t Vertex, opt Options) (int, error) {
	return algo.Distance(g, s, t, opt)
}

// STConnectivity reports whether t is reachable from s, using a
// bidirectional search in the style of the Bader-Madduri MTA-2 kernel.
func STConnectivity(g *Graph, s, t Vertex) (bool, error) {
	return algo.STConnectivity(g, s, t)
}

// MultiSourceBFS returns each vertex's distance to the nearest of the
// given roots and which root claimed it.
func MultiSourceBFS(g *Graph, roots []Vertex) (depths []int32, nearest []int32, err error) {
	return algo.MultiSourceBFS(g, roots)
}

// ApproxDiameter lower-bounds the diameter of g by the double-sweep
// heuristic (exact on trees).
func ApproxDiameter(g *Graph, start Vertex, opt Options) (int, error) {
	return algo.ApproxDiameter(g, start, opt)
}

// Betweenness computes betweenness centrality by Brandes' algorithm
// (one BFS plus one dependency sweep per source, parallel over
// sources). Pass every vertex as a source for exact centrality, or a
// sample for the SSCA#2-style estimate. workers <= 0 means GOMAXPROCS.
func Betweenness(g *Graph, sources []Vertex, workers int) ([]float64, error) {
	return ssca2.Kernel4(g, sources, workers)
}

// Graph500Spec configures RunGraph500.
type Graph500Spec = graph500.Spec

// Graph500Result reports a Graph500-protocol run.
type Graph500Result = graph500.Result

// DefaultGraph500Spec returns the standard protocol (edge factor 16,
// 64 roots) at the given scale.
func DefaultGraph500Spec(scale int) Graph500Spec { return graph500.DefaultSpec(scale) }

// RunGraph500 executes the Graph500-style BFS benchmark protocol:
// Kronecker generation, BFS from sampled roots, per-root validation,
// harmonic-mean TEPS reporting.
func RunGraph500(spec Graph500Spec) (*Graph500Result, error) { return graph500.Run(spec) }
