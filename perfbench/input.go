package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// rng is xoshiro256** seeded through splitmix64. The benchmark owns its
// generator so that no change to the program can alter a workload.
type rng struct{ s [4]uint64 }

func newRNG(seed uint64) *rng {
	r := &rng{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func (r *rng) next() uint64 {
	s := &r.s
	out := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return out
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// Seed streams: each input of a workload draws from its own stream, so
// adding a draw to one input never shifts another.
const (
	streamEdges = iota + 1
	streamPerm
	streamRoots
	streamProbe
	streamIngest
)

func streamRNG(seed uint64, stream int) *rng {
	return newRNG(seed*0x100000001b3 + uint64(stream)*0x9e3779b97f4a7c15)
}

// rmatEdges samples m directed R-MAT edges over 2^scale vertices with the
// Graph500 quadrant probabilities (A=.57, B=.19, C=.19, D=.05) and then
// relabels the vertices by a seeded random permutation, as the Graph500
// generator does, so vertex ids carry no degree information.
func rmatEdges(scale int, m int64, seed uint64) (srcs, dsts []uint32) {
	const a, b, c = 0.57, 0.19, 0.19
	n := 1 << scale
	srcs = make([]uint32, m)
	dsts = make([]uint32, m)
	r := streamRNG(seed, streamEdges)
	for i := range srcs {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			x := r.float()
			switch {
			case x < a:
			case x < a+b:
				v |= 1 << bit
			case x < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		srcs[i], dsts[i] = u, v
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	pr := streamRNG(seed, streamPerm)
	for i := n - 1; i > 0; i-- {
		j := pr.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range srcs {
		srcs[i], dsts[i] = perm[srcs[i]], perm[dsts[i]]
	}
	return srcs, dsts
}

// csr is the benchmark's private copy of an undirected graph: every
// input edge (u,v) appears as u->v and v->u, exactly the multiset the
// program's Graph.Undirected builds, with each adjacency list sorted so
// that edge lookups are binary searches.
type csr struct {
	off []int64
	adj []uint32
}

func buildCSR(n int, srcs, dsts []uint32) *csr {
	off := make([]int64, n+1)
	for i := range srcs {
		off[srcs[i]+1]++
		off[dsts[i]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]uint32, off[n])
	cur := slices.Clone(off[:n])
	for i := range srcs {
		u, v := srcs[i], dsts[i]
		adj[cur[u]] = v
		cur[u]++
		adj[cur[v]] = u
		cur[v]++
	}
	g := &csr{off: off, adj: adj}
	for v := 0; v < n; v++ {
		slices.Sort(g.nbrs(uint32(v)))
	}
	return g
}

func (g *csr) numVertices() int         { return len(g.off) - 1 }
func (g *csr) degree(v uint32) int64    { return g.off[v+1] - g.off[v] }
func (g *csr) nbrs(v uint32) []uint32   { return g.adj[g.off[v]:g.off[v+1]] }
func (g *csr) hasEdge(u, v uint32) bool { _, ok := slices.BinarySearch(g.nbrs(v), u); return ok }

// pickRoots draws k roots with at least one edge, uniformly with
// replacement, from the roots stream.
func pickRoots(g *csr, k int, seed uint64, stream int) []uint32 {
	r := streamRNG(seed, stream)
	n := g.numVertices()
	roots := make([]uint32, 0, k)
	for len(roots) < k {
		v := uint32(r.intn(n))
		if g.degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	return roots
}

// unreached marks a vertex the reference did not reach in ref.depth.
const unreached = math.MaxUint8

// ref is the benchmark's serial reference BFS over its private CSR. It
// is also the frozen probe: its rate tracks the host, never the program.
// One ref is reused across searches; its reset is O(reached).
type ref struct {
	g     *csr
	depth []uint8
	queue []uint32
	// Results of the last run, with the program's definitions: reached
	// counts the root; levels is the number of levels expanded; edges
	// (m_a) is the adjacency entries of the expanded vertices.
	reached int64
	levels  int
	edges   int64
	dur     time.Duration
}

func newRef(g *csr) *ref {
	n := g.numVertices()
	r := &ref{g: g, depth: make([]uint8, n), queue: make([]uint32, 0, n)}
	for i := range r.depth {
		r.depth[i] = unreached
	}
	return r
}

// run searches from root, expanding at most maxLevels levels (0 means
// unbounded). It fails only when a depth would not fit the uint8 depth
// array, which R-MAT graphs of these sizes never approach.
func (r *ref) run(root uint32, maxLevels int) error {
	start := time.Now()
	for _, v := range r.queue {
		r.depth[v] = unreached
	}
	q := r.queue[:0]
	q = append(q, root)
	r.depth[root] = 0
	edges := int64(0)
	levels := 0
	prev, limit := 0, 1
	for limit > prev && (maxLevels == 0 || levels < maxLevels) {
		d := uint8(levels + 1)
		if d == unreached {
			r.queue = q
			return errors.New("reference: BFS deeper than 254 levels")
		}
		for _, u := range q[prev:limit] {
			nb := r.g.nbrs(u)
			edges += int64(len(nb))
			for _, v := range nb {
				if r.depth[v] == unreached {
					r.depth[v] = d
					q = append(q, v)
				}
			}
		}
		levels++
		prev, limit = limit, len(q)
	}
	r.queue = q
	r.reached = int64(len(q))
	r.levels = levels
	r.edges = edges
	r.dur = time.Since(start)
	return nil
}

// validateTree checks a parent array against the last reference run
// with the Graph500 rules: the root is its own parent, the reached set
// equals the reference's, every parent is one level closer to the root,
// and every parent edge exists. parents[v] == noParent marks unreached;
// entries at or beyond len(r.depth) must all be unreached.
func (r *ref) validateTree(root uint32, parents []uint32, noParent uint32) error {
	if int(root) >= len(parents) || parents[root] != root {
		return fmt.Errorf("root %d is not its own parent", root)
	}
	n := len(r.depth)
	if len(parents) < n {
		return fmt.Errorf("parent array has %d entries, want at least %d", len(parents), n)
	}
	for v := n; v < len(parents); v++ {
		if parents[v] != noParent {
			return fmt.Errorf("vertex %d outside the reference graph has parent %d", v, parents[v])
		}
	}
	for v, p := range parents[:n] {
		d := r.depth[v]
		if p == noParent {
			if d != unreached {
				return fmt.Errorf("vertex %d at depth %d was not reached", v, d)
			}
			continue
		}
		if d == unreached {
			return fmt.Errorf("vertex %d has parent %d but is not reachable", v, p)
		}
		if uint32(v) == root {
			continue
		}
		if int(p) >= n || r.depth[p] != d-1 {
			return fmt.Errorf("vertex %d at depth %d has parent %d at a different depth", v, d, p)
		}
		if !r.g.hasEdge(p, uint32(v)) {
			return fmt.Errorf("parent edge %d-%d does not exist", p, v)
		}
	}
	return nil
}

// scalars is the per-root answer a serving query is checked against.
type scalars struct {
	reached int64
	levels  int
	edges   int64
}

func (r *ref) scalars() scalars { return scalars{r.reached, r.levels, r.edges} }

// checkScalars compares a program answer with the reference's.
func checkScalars(root uint32, want scalars, reached int64, levels int, edges int64) error {
	if reached != want.reached || levels != want.levels || edges != want.edges {
		return fmt.Errorf("root %d: reached/levels/edges %d/%d/%d, reference %d/%d/%d",
			root, reached, levels, edges, want.reached, want.levels, want.edges)
	}
	return nil
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank method: the smallest sample with at least q of the
// samples at or below it. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median returns the middle sample (mean of the two middle ones for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}
