// Package graph500 runs the Graph500-style BFS benchmark protocol over
// this library. The Graph500 list was launched in the same year as the
// paper (SC 2010) around exactly this kernel, and its protocol became
// the standard way to report BFS performance:
//
//  1. generate a Kronecker/R-MAT graph of the given scale and edge
//     factor;
//  2. sample a fixed number of search keys (roots) with non-zero
//     degree;
//  3. run one timed BFS per key;
//  4. validate every resulting tree;
//  5. report TEPS (traversed edges per second) statistics — notably
//     the harmonic mean, which Graph500 designates as the headline
//     number.
//
// Running the protocol here both exercises the library the way the
// community benchmarks BFS and provides the "competitive Graph500-era
// results" frame of the paper's abstract.
package graph500

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/rng"
	"mcbfs/internal/stats"
)

// Spec configures a benchmark run.
type Spec struct {
	// Scale is log2 of the vertex count.
	Scale int
	// EdgeFactor is the ratio m/n (Graph500 default 16).
	EdgeFactor int
	// Roots is the number of search keys (Graph500 uses 64).
	Roots int
	// Seed drives generation and root sampling.
	Seed uint64
	// Options configures the BFS runs (algorithm tier, threads, ...).
	// Its Ordering relabels the generated graph under a
	// locality-optimized vertex ordering once, before the search phase;
	// both the per-query and the batched phase run on that one
	// Reordered. The reorder time is reported separately
	// (Result.ReorderTime), never charged to construction or search;
	// roots keep their original ids — the sessions translate
	// transparently. A supplied Options.Reordered is used as-is.
	Options core.Options
	// SkipValidation skips per-root tree validation (validation is
	// O(n+m) per root and dominates small-scale runs).
	SkipValidation bool
	// SearchTimeout, when positive, bounds each root's BFS: a search
	// that exceeds it is abandoned via context cancellation, counted in
	// Result.RootsTimedOut, and excluded from the TEPS statistics. The
	// session stays warm — the next root pays only the usual reset.
	SearchTimeout time.Duration
	// Metrics, when non-nil, receives each timed-out root as a live
	// TimedOut increment, so a long run's abandonment count is visible
	// on /debug/vars and /metrics while the protocol is still going,
	// not only in the stdout summary at the end.
	Metrics *obs.Metrics
	// Batch additionally replays every sampled root through one MS-BFS
	// session in chunks of up to core.MaxLanes lanes per shared
	// adjacency pass, reporting the batched aggregate TEPS and
	// queries/sec next to the per-query cold/warm numbers. Each lane's
	// tree is validated unless SkipValidation is set.
	Batch bool
}

// DefaultSpec returns the standard protocol at the given scale: edge
// factor 16, 64 roots.
func DefaultSpec(scale int) Spec {
	return Spec{Scale: scale, EdgeFactor: 16, Roots: 64, Seed: 2010}
}

// Result reports one benchmark run.
type Result struct {
	// Scale and EdgeFactor echo the spec.
	Scale      int
	EdgeFactor int
	// Vertices and Edges are the generated graph's size.
	Vertices int
	Edges    int64
	// ConstructionTime is the kernel-1 (generation + CSR build) time,
	// the sum of GenerationTime and BuildTime. Construction is a
	// first-class reported metric alongside search TEPS: at large
	// scales a serial builder would dominate the whole protocol.
	ConstructionTime time.Duration
	// GenerationTime is the Kronecker edge-sampling portion of
	// kernel 1.
	GenerationTime time.Duration
	// BuildTime is the CSR-construction portion of kernel 1 (the
	// undirected counting-sort build).
	BuildTime time.Duration
	// Ordering echoes the active vertex ordering; ReorderTime is its
	// one-time cost (permutation + relabel), reported separately from
	// construction and search so the amortization math stays visible.
	// Zero for natural order.
	Ordering    graph.Ordering
	ReorderTime time.Duration
	// RootsRun is the number of BFS runs (may be below Spec.Roots if
	// the graph has fewer non-isolated vertices).
	RootsRun int
	// RootsTimedOut is the number of roots abandoned at
	// Spec.SearchTimeout; their partial searches contribute no TEPS
	// sample.
	RootsTimedOut int
	// TEPS holds one traversed-edges-per-second value per root.
	TEPS []float64
	// HarmonicMeanTEPS is the Graph500 headline metric.
	HarmonicMeanTEPS float64
	// ColdTEPS is the first root's rate with the search-session setup
	// (worker pool spawn, parent/bitmap/queue allocation) charged to
	// it — what a one-shot caller pays.
	ColdTEPS float64
	// WarmHarmonicMeanTEPS is the harmonic mean over roots 2..N, which
	// reuse the first root's session state and pay only an O(touched)
	// reset. The gap to ColdTEPS is the amortized setup. Zero when only
	// one root ran.
	WarmHarmonicMeanTEPS float64
	// MinTEPS, MedianTEPS, MaxTEPS summarize the distribution.
	MinTEPS, MedianTEPS, MaxTEPS float64
	// BatchDuration is the wall-clock time of the batched replay —
	// session setup plus every chunk. Zero unless Spec.Batch.
	BatchDuration time.Duration
	// BatchTEPS is the batched replay's aggregate rate: the sum of
	// per-lane attributable edges over BatchDuration. Comparable to
	// WarmHarmonicMeanTEPS, which is what one root at a time achieves
	// on the same warm machinery.
	BatchTEPS float64
	// BatchQueriesPerSec is completed roots per second of the batched
	// replay — the serving-throughput view of the same run.
	BatchQueriesPerSec float64
	// BatchAmortization is lane-attributed edges over edges the shared
	// traversals actually scanned: how many single-source passes each
	// shared pass replaced.
	BatchAmortization float64
	// BatchRootsRun counts roots completing in the batched replay.
	BatchRootsRun int
	// MeanReached is the average number of vertices reached per root.
	MeanReached float64
	// Validated reports whether every tree passed validation.
	Validated bool
}

// Run executes the protocol.
func Run(spec Spec) (*Result, error) {
	if spec.Scale < 1 || spec.Scale > 30 {
		return nil, fmt.Errorf("graph500: scale %d out of range [1,30]", spec.Scale)
	}
	if spec.EdgeFactor < 1 {
		return nil, fmt.Errorf("graph500: edge factor %d must be >= 1", spec.EdgeFactor)
	}
	if spec.Roots < 1 {
		return nil, fmt.Errorf("graph500: root count %d must be >= 1", spec.Roots)
	}

	n := 1 << spec.Scale
	m := int64(n) * int64(spec.EdgeFactor)

	constructStart := time.Now()
	// Graph500's Kronecker generator is the R-MAT recursion with the
	// (0.57, 0.19, 0.19, 0.05) parameters; edges are interpreted as
	// undirected, so both directions enter the CSR.
	directed, err := gen.RMAT(spec.Scale, m, gen.Graph500Params, spec.Seed)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	g := directed.Undirected()
	built := time.Now()
	generation := generated.Sub(constructStart)
	build := built.Sub(generated)
	construction := built.Sub(constructStart)

	// Sample roots among vertices with at least one edge, as the
	// specification requires.
	r := rng.New(spec.Seed ^ 0x500)
	roots := make([]graph.Vertex, 0, spec.Roots)
	seen := make(map[graph.Vertex]bool)
	attempts := 0
	for len(roots) < spec.Roots && attempts < 100*spec.Roots {
		attempts++
		v := graph.Vertex(r.Intn(n))
		if g.Degree(v) == 0 || seen[v] {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	if len(roots) == 0 {
		return nil, errors.New("graph500: no non-isolated vertices to sample")
	}

	res := &Result{
		Scale:      spec.Scale,
		EdgeFactor: spec.EdgeFactor,
		Vertices:   n,
		Edges:      g.NumEdges(),

		ConstructionTime: construction,
		GenerationTime:   generation,
		BuildTime:        build,
		Validated:        true,
	}
	// Relabel under the requested ordering once, before any session is
	// built; both the per-query and batched phases share the one
	// Reordered. The cost is timed apart from construction and search.
	rd := spec.Options.Reordered
	if rd == nil && spec.Options.Ordering != graph.OrderNatural {
		if rd, err = g.Reorder(spec.Options.Ordering); err != nil {
			return nil, err
		}
		spec.Options.Reordered = rd
		if spec.Metrics != nil {
			spec.Metrics.ReorderNs.Add(int64(rd.ReorderTime()))
		}
	}
	if rd != nil {
		res.Ordering, res.ReorderTime = rd.Order, rd.ReorderTime()
	}
	// All roots run on one search session: the worker pool, parent
	// array, bitmaps and queues are created once and reused, so roots
	// after the first pay only an O(touched) reset. Setup is charged to
	// the first (cold) root, matching what a one-shot caller would pay.
	setupStart := time.Now()
	searcher, err := core.NewSearcher(g, spec.Options)
	if err != nil {
		return nil, err
	}
	defer searcher.Close()
	setup := time.Since(setupStart)

	var reachedSum float64
	completed := 0
	for i, root := range roots {
		bfsRes, err := runRoot(searcher, root, spec.SearchTimeout)
		if errors.Is(err, context.DeadlineExceeded) {
			// The deadline knob: a pathological root is abandoned
			// mid-search; the session's O(touched) reset makes the next
			// root's tree exact regardless.
			res.RootsTimedOut++
			if spec.Metrics != nil {
				spec.Metrics.TimedOut.Add(1)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		completed++
		res.TEPS = append(res.TEPS, bfsRes.EdgesPerSecond())
		reachedSum += float64(bfsRes.Reached)
		if i == 0 {
			if d := setup + bfsRes.Duration; d > 0 {
				res.ColdTEPS = float64(bfsRes.EdgesTraversed) / d.Seconds()
			}
		}
		// Validate in-loop: the session reuses its parent array, so the
		// tree must be checked before the next search resets it.
		if !spec.SkipValidation {
			if err := core.ValidateTree(g, root, bfsRes.Parents); err != nil {
				res.Validated = false
				return res, fmt.Errorf("graph500: root %d produced invalid tree: %w", root, err)
			}
		}
	}
	res.RootsRun = len(roots)
	if completed == 0 {
		return res, fmt.Errorf("graph500: all %d roots exceeded the %v search timeout", len(roots), spec.SearchTimeout)
	}
	res.MeanReached = reachedSum / float64(completed)
	res.HarmonicMeanTEPS = stats.HarmonicMean(res.TEPS)
	if len(res.TEPS) > 1 {
		res.WarmHarmonicMeanTEPS = stats.HarmonicMean(res.TEPS[1:])
	}
	res.MinTEPS = stats.Quantile(res.TEPS, 0)
	res.MedianTEPS = stats.Quantile(res.TEPS, 0.5)
	res.MaxTEPS = stats.Quantile(res.TEPS, 1)
	if spec.Batch {
		if err := runBatch(spec, g, roots, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// runBatch replays the sampled roots through one MS-BFS session,
// core.MaxLanes lanes per shared traversal, filling the Batch* result
// fields. Session setup is charged to the replay, mirroring how the
// per-query phase charges setup to its cold root.
func runBatch(spec Spec, g *graph.Graph, roots []graph.Vertex, res *Result) error {
	setupStart := time.Now()
	bs, err := core.NewBatchSearcher(g, core.BatchOptions{
		Width:          core.MaxLanes,
		Threads:        spec.Options.Threads,
		PinThreads:     spec.Options.PinThreads,
		Telemetry:      spec.Options.Telemetry,
		TelemetryShard: spec.Options.TelemetryShard,
		Ordering:       spec.Options.Ordering,
		Reordered:      spec.Options.Reordered,
	})
	if err != nil {
		return err
	}
	defer bs.Close()
	// Like the per-query phase, the replay's clock counts setup and
	// traversal but not validation.
	elapsed := time.Since(setupStart)
	var laneEdges, scanned int64
	var parents []uint32
	for off := 0; off < len(roots); off += core.MaxLanes {
		chunk := roots[off:min(off+core.MaxLanes, len(roots))]
		bres, err := runChunk(bs, chunk, spec.SearchTimeout)
		if errors.Is(err, context.DeadlineExceeded) {
			// The whole chunk is abandoned at the deadline; the
			// session's O(touched) reset keeps the next chunk exact.
			res.RootsTimedOut += len(chunk)
			if spec.Metrics != nil {
				spec.Metrics.TimedOut.Add(int64(len(chunk)))
			}
			continue
		}
		if err != nil {
			return err
		}
		elapsed += bres.Duration
		scanned += bres.EdgesScanned
		for l := range chunk {
			if bres.Err[l] != nil {
				continue
			}
			res.BatchRootsRun++
			laneEdges += bres.Edges[l]
			// Validate in-loop: the session reuses its lane state, so
			// trees must be checked before the next chunk resets them.
			if !spec.SkipValidation {
				parents = bres.ExtractParents(l, parents)
				if err := core.ValidateTree(g, chunk[l], parents); err != nil {
					res.Validated = false
					return fmt.Errorf("graph500: batched root %d produced invalid tree: %w", chunk[l], err)
				}
			}
		}
	}
	res.BatchDuration = elapsed
	if s := res.BatchDuration.Seconds(); s > 0 {
		res.BatchTEPS = float64(laneEdges) / s
		res.BatchQueriesPerSec = float64(res.BatchRootsRun) / s
	}
	if scanned > 0 {
		res.BatchAmortization = float64(laneEdges) / float64(scanned)
	}
	return nil
}

// runChunk runs one batch of roots, deadline-bounded when timeout is
// positive.
func runChunk(bs *core.BatchSearcher, chunk []graph.Vertex, timeout time.Duration) (*core.BatchResult, error) {
	if timeout <= 0 {
		return bs.Search(chunk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return bs.SearchContext(ctx, chunk)
}

// runRoot runs one root's BFS, deadline-bounded when timeout is
// positive.
func runRoot(s *core.Searcher, root graph.Vertex, timeout time.Duration) (*core.Result, error) {
	if timeout <= 0 {
		return s.BFS(root)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.SearchContext(ctx, root, core.Query{})
}

// ConstructionEPS returns the kernel-1 rate: directed CSR edge slots
// built per second of total construction time (generation + build),
// the construction analogue of search TEPS.
func (r *Result) ConstructionEPS() float64 {
	s := r.ConstructionTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Edges) / s
}

// String renders the result the way Graph500 submissions are quoted,
// with construction reported separately from search.
func (r *Result) String() string {
	coldWarm := ""
	if r.WarmHarmonicMeanTEPS > 0 {
		coldWarm = fmt.Sprintf(", cold %s / warm %s",
			stats.FormatRate(r.ColdTEPS), stats.FormatRate(r.WarmHarmonicMeanTEPS))
	}
	if r.RootsTimedOut > 0 {
		coldWarm += fmt.Sprintf(", %d roots timed out", r.RootsTimedOut)
	}
	if r.BatchDuration > 0 {
		coldWarm += fmt.Sprintf(", batched %s aggregate TEPS (%.1f queries/s, %.1fx edge amortization, %d roots in %v)",
			stats.FormatRate(r.BatchTEPS), r.BatchQueriesPerSec, r.BatchAmortization,
			r.BatchRootsRun, r.BatchDuration.Round(time.Millisecond))
	}
	reorder := ""
	if r.Ordering != graph.OrderNatural {
		reorder = fmt.Sprintf(" + reorder[%s] %v", r.Ordering, r.ReorderTime.Round(time.Millisecond))
	}
	return fmt.Sprintf(
		"graph500 scale=%d edgefactor=%d: %s harmonic-mean TEPS over %d roots (min %s, median %s, max %s)%s, construction %v (generate %v + build %v, %s construction rate)%s, validated=%v",
		r.Scale, r.EdgeFactor, stats.FormatRate(r.HarmonicMeanTEPS), r.RootsRun,
		stats.FormatRate(r.MinTEPS), stats.FormatRate(r.MedianTEPS), stats.FormatRate(r.MaxTEPS),
		coldWarm,
		r.ConstructionTime.Round(time.Millisecond),
		r.GenerationTime.Round(time.Millisecond), r.BuildTime.Round(time.Millisecond),
		stats.FormatRate(r.ConstructionEPS()), reorder, r.Validated)
}
