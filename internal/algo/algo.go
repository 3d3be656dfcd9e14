// Package algo implements the graph analyses the paper's introduction
// motivates BFS with: connected components for community analysis,
// shortest paths between entities of a semantic graph, st-connectivity,
// and reachability/diameter estimates. Each is built on the package
// core BFS, demonstrating it as the building block the paper positions
// it to be.
package algo

import (
	"errors"
	"fmt"
	"math/bits"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
)

// NoComponent labels vertices not assigned to any component (cannot
// occur in ConnectedComponents output; exported for symmetry with
// core.NoParent).
const NoComponent = int32(-1)

// Components is the result of a connected-components run.
type Components struct {
	// Label[v] is the component id of vertex v, in [0, Count).
	Label []int32
	// Count is the number of components.
	Count int
	// Sizes[c] is the number of vertices in component c.
	Sizes []int64
}

// GiantFraction returns the fraction of vertices in the largest
// component — the quantity community-analysis studies track on
// power-law graphs.
func (c *Components) GiantFraction() float64 {
	if len(c.Label) == 0 {
		return 0
	}
	var max int64
	for _, s := range c.Sizes {
		if s > max {
			max = s
		}
	}
	return float64(max) / float64(len(c.Label))
}

// ConnectedComponents labels the weakly connected components of g
// (edges are treated as undirected) by multi-source BFS: each batch
// seeds one MS-BFS lane per candidate component root, so up to
// core.MaxLanes components are flooded in a single shared adjacency
// pass. The long tail of small components — where the classic
// one-BFS-per-component loop pays a full frontier scan each — costs
// 1/64th the passes; the giant component of a power-law graph still
// parallelizes across opt.Threads workers like a single BFS.
//
// opt's Threads, PinThreads, Telemetry and TelemetryShard configure
// the underlying MS-BFS session (Algorithm is ignored: the lane engine
// is its own tier). If g is already symmetric, pass symmetric=true to
// skip building the undirected copy.
func ConnectedComponents(g *graph.Graph, symmetric bool, opt core.Options) (*Components, error) {
	if g == nil {
		return nil, errors.New("algo: nil graph")
	}
	u := g
	if !symmetric {
		u = g.Undirected()
	}
	n := u.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = NoComponent
	}
	// One session covers every batch: after the giant component's
	// batch, later batches pay only an O(touched) reset each instead
	// of re-zeroing n-sized arrays. Labels come from SeenMask and
	// Touched alone, so the session records no parents.
	bs, err := core.NewBatchSearcherWithoutParents(u, core.BatchOptions{
		Width:          core.MaxLanes,
		Threads:        opt.Threads,
		PinThreads:     opt.PinThreads,
		Telemetry:      opt.Telemetry,
		TelemetryShard: opt.TelemetryShard,
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	var sizes []int64
	roots := make([]graph.Vertex, 0, core.MaxLanes)
	laneComp := make([]int32, core.MaxLanes)
	next := int32(0)
	for v := 0; v < n; {
		// Gather the next batch of candidate roots: the lowest
		// unlabeled vertices. Two candidates may share a component —
		// the lane-inheritance rule below resolves that after the
		// search. Everything a lane can reach is unlabeled (a weak
		// component is always flooded whole), so labels stay stable
		// across batches.
		roots = roots[:0]
		for ; v < n && len(roots) < core.MaxLanes; v++ {
			if label[v] == NoComponent {
				roots = append(roots, graph.Vertex(v))
			}
		}
		if len(roots) == 0 {
			break
		}
		res, err := bs.Search(roots)
		if err != nil {
			return nil, err
		}
		// Lane i founds a new component iff it is the lowest lane to
		// reach its own root; otherwise an earlier lane of the same
		// component flooded it and lane i inherits that label.
		// Candidates ascend, so components keep the sequential loop's
		// ascending-smallest-member numbering.
		for i, r := range roots {
			low := bits.TrailingZeros64(res.SeenMask(r))
			if low == i {
				laneComp[i] = next
				next++
				sizes = append(sizes, 0)
			} else {
				laneComp[i] = laneComp[low]
			}
		}
		for _, w := range res.Touched() {
			c := laneComp[bits.TrailingZeros64(res.SeenMask(w))]
			label[w] = c
			sizes[c]++
		}
	}
	return &Components{Label: label, Count: int(next), Sizes: sizes}, nil
}

// ShortestPath returns a shortest (minimum-hop) path from s to t in g,
// inclusive of both endpoints, or ok=false if t is unreachable from s.
func ShortestPath(g *graph.Graph, s, t graph.Vertex, opt core.Options) (path []graph.Vertex, ok bool, err error) {
	if g == nil {
		return nil, false, errors.New("algo: nil graph")
	}
	n := g.NumVertices()
	if int(s) >= n || int(t) >= n {
		return nil, false, fmt.Errorf("algo: endpoint out of range [0,%d)", n)
	}
	if s == t {
		return []graph.Vertex{s}, true, nil
	}
	res, err := core.BFS(g, s, opt)
	if err != nil {
		return nil, false, err
	}
	if res.Parents[t] == core.NoParent {
		return nil, false, nil
	}
	var rev []graph.Vertex
	for v := t; ; v = graph.Vertex(res.Parents[v]) {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	path = make([]graph.Vertex, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, true, nil
}

// Distance returns the hop distance from s to t, or -1 if unreachable.
func Distance(g *graph.Graph, s, t graph.Vertex, opt core.Options) (int, error) {
	path, ok, err := ShortestPath(g, s, t, opt)
	if err != nil {
		return 0, err
	}
	if !ok {
		return -1, nil
	}
	return len(path) - 1, nil
}

// STConnectivity reports whether t is reachable from s. It runs a
// bidirectional search — a forward frontier from s and a backward
// frontier from t over the transpose — expanding the smaller frontier
// each step, the strategy of the Bader-Madduri MTA-2 st-connectivity
// kernel the paper compares against. The transpose is computed
// internally; for repeated queries precompute it once and use
// STConnectivityWithTranspose.
func STConnectivity(g *graph.Graph, s, t graph.Vertex) (bool, error) {
	if g == nil {
		return false, errors.New("algo: nil graph")
	}
	return STConnectivityWithTranspose(g, g.Transpose(), s, t)
}

// STConnectivityWithTranspose is STConnectivity with a caller-supplied
// transpose of g.
func STConnectivityWithTranspose(g, gt *graph.Graph, s, t graph.Vertex) (bool, error) {
	n := g.NumVertices()
	if int(s) >= n || int(t) >= n {
		return false, fmt.Errorf("algo: endpoint out of range [0,%d)", n)
	}
	if gt.NumVertices() != n || gt.NumEdges() != g.NumEdges() {
		return false, errors.New("algo: transpose does not match graph")
	}
	if s == t {
		return true, nil
	}
	const (
		unseen = 0
		fwd    = 1
		bwd    = 2
	)
	mark := make([]uint8, n)
	mark[s], mark[t] = fwd, bwd
	fq := []graph.Vertex{s}
	bq := []graph.Vertex{t}
	// Expand the cheaper side first: compare pending edge work.
	edgeWork := func(g *graph.Graph, q []graph.Vertex) int64 {
		var w int64
		for _, v := range q {
			w += int64(g.Degree(v))
		}
		return w
	}
	for len(fq) > 0 && len(bq) > 0 {
		if edgeWork(g, fq) <= edgeWork(gt, bq) {
			var next []graph.Vertex
			for _, u := range fq {
				for _, v := range g.Neighbors(u) {
					switch mark[v] {
					case bwd:
						return true, nil
					case unseen:
						mark[v] = fwd
						next = append(next, v)
					}
				}
			}
			fq = next
		} else {
			var next []graph.Vertex
			for _, u := range bq {
				for _, v := range gt.Neighbors(u) {
					switch mark[v] {
					case fwd:
						return true, nil
					case unseen:
						mark[v] = bwd
						next = append(next, v)
					}
				}
			}
			bq = next
		}
	}
	return false, nil
}

// MultiSourceBFS runs one BFS from a virtual super-source connected to
// all roots: the returned depths hold each vertex's distance to the
// *nearest* root (NoDepth when unreachable from every root), and
// nearest holds which root claimed it. Community seeding and landmark
// distance schemes use exactly this primitive.
func MultiSourceBFS(g *graph.Graph, roots []graph.Vertex) (depths []int32, nearest []int32, err error) {
	if g == nil {
		return nil, nil, errors.New("algo: nil graph")
	}
	n := g.NumVertices()
	depths = make([]int32, n)
	nearest = make([]int32, n)
	for i := range depths {
		depths[i] = core.NoDepth
		nearest[i] = -1
	}
	var frontier []graph.Vertex
	for i, r := range roots {
		if int(r) >= n {
			return nil, nil, fmt.Errorf("algo: root %d out of range [0,%d)", r, n)
		}
		if depths[r] == core.NoDepth {
			depths[r] = 0
			nearest[r] = int32(i)
			frontier = append(frontier, r)
		}
	}
	depth := int32(0)
	for len(frontier) > 0 {
		depth++
		var next []graph.Vertex
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if depths[v] == core.NoDepth {
					depths[v] = depth
					nearest[v] = nearest[u]
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return depths, nearest, nil
}

// Eccentricity returns the greatest BFS depth from root within its
// reachable set, i.e. Result.Levels-1.
func Eccentricity(g *graph.Graph, root graph.Vertex, opt core.Options) (int, error) {
	res, err := core.BFS(g, root, opt)
	if err != nil {
		return 0, err
	}
	return res.Levels - 1, nil
}

// ApproxDiameter lower-bounds the diameter of g by the double-sweep
// heuristic: BFS from start, then BFS from the deepest vertex found.
// On trees the bound is exact; on general graphs it is a strong lower
// bound widely used for power-law networks.
func ApproxDiameter(g *graph.Graph, start graph.Vertex, opt core.Options) (int, error) {
	if g == nil {
		return 0, errors.New("algo: nil graph")
	}
	res, err := core.BFS(g, start, opt)
	if err != nil {
		return 0, err
	}
	depths := core.TreeDepths(res.Parents, start)
	far := start
	best := int32(0)
	for v, d := range depths {
		if d != core.NoDepth && d > best {
			best, far = d, graph.Vertex(v)
		}
	}
	ecc, err := Eccentricity(g, far, opt)
	if err != nil {
		return 0, err
	}
	if int(best) > ecc {
		return int(best), nil
	}
	return ecc, nil
}
