package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"mcbfs"
)

// lanes is the MS-BFS batch width of the kernel workload.
const lanes = mcbfs.MaxBatchLanes

// batchEvery is how many rounds pass between MS-BFS batches.
const batchEvery = 8

// kcfg is one kernel configuration: a warm session and what it did.
type kcfg struct {
	name    string
	s       *mcbfs.Searcher
	lat     []float64 // ms per search
	searchN int64
	edges   int64 // sum of the reference's m_a
	wall    time.Duration
	scanned int64 // sum of the program's EdgesTraversed
	lv      mcbfs.LevelStats
	maxW    int64 // sum of MaxWorkerEdges x threads
}

// kernelSessions is one complete kernel set-up.
type kernelSessions struct {
	g    *mcbfs.Graph
	cfgs []*kcfg
	bs   *mcbfs.BatchSearcher
}

func (k *kernelSessions) close() {
	for _, c := range k.cfgs {
		_ = c.s.Close()
	}
	if k.bs != nil {
		_ = k.bs.Close()
	}
}

// buildGraph builds the undirected graph through the public
// constructors, timing each call, and measures the heap it retains.
func buildGraph(n int, srcs, dsts []uint32, sb *spanBuf, lay map[string][]float64) (*mcbfs.Graph, time.Duration, error) {
	h0 := heapInUse()
	t0 := time.Now()
	g1, err := mcbfs.NewGraphFromArrays(n, srcs, dsts)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	g := g1.Undirected()
	t2 := time.Now()
	sb.add("graph.NewGraphFromArrays", 0, 0, t0, t1)
	sb.add("graph.Undirected", 0, 0, t1, t2)
	lay["graph.build_s"] = append(lay["graph.build_s"], t1.Sub(t0).Seconds())
	lay["graph.undirected_s"] = append(lay["graph.undirected_s"], t2.Sub(t1).Seconds())
	g1 = nil
	lay["graph.bytes_per_edge"] = append(lay["graph.bytes_per_edge"], float64(heapInUse()-h0)/float64(g.NumEdges()))
	return g, t2.Sub(t0), nil
}

// kernelSetup builds the graph and every session through the public
// constructors, timing each call, and returns the set-up's total.
func kernelSetup(n int, srcs, dsts []uint32, instrument bool, sb *spanBuf, lay map[string][]float64) (*kernelSessions, float64, error) {
	g, total, err := buildGraph(n, srcs, dsts, sb, lay)
	if err != nil {
		return nil, 0, err
	}

	opts := []mcbfs.Options{
		{Algorithm: mcbfs.AlgSequential, Threads: 1},
		{Algorithm: mcbfs.AlgParallelSimple, Threads: 2},
		{Algorithm: mcbfs.AlgSingleSocket, Threads: 2},
		{Algorithm: mcbfs.AlgMultiSocket, Threads: 2, Machine: mcbfs.GenericMachine(2, 1, 1)},
		{Algorithm: mcbfs.AlgDirectionOptimizing, Threads: 2, Transpose: g},
	}
	k := &kernelSessions{g: g}
	for i, opt := range opts {
		opt.Instrument = instrument
		t0 := time.Now()
		s, err := mcbfs.NewSearcher(g, opt)
		t1 := time.Now()
		if err != nil {
			k.close()
			return nil, 0, err
		}
		sb.add("core.NewSearcher", 0, 0, t0, t1)
		total += t1.Sub(t0)
		lay["core.new_searcher_ms."+tiers[i]] = append(lay["core.new_searcher_ms."+tiers[i]], ms(t1.Sub(t0)))
		k.cfgs = append(k.cfgs, &kcfg{name: tiers[i], s: s})
	}
	t0 := time.Now()
	k.bs, err = mcbfs.NewBatchSearcher(g, mcbfs.BatchOptions{Width: lanes, Threads: 2})
	t1 := time.Now()
	if err != nil {
		k.close()
		return nil, 0, err
	}
	sb.add("core.NewBatchSearcher", 0, 0, t0, t1)
	total += t1.Sub(t0)
	lay["core.new_batch_ms"] = append(lay["core.new_batch_ms"], ms(t1.Sub(t0)))
	return k, total.Seconds(), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// laneRing holds the reference answers of the 64 most recent roots,
// which are the next MS-BFS batch's lanes. depth is vertex-major, so one
// vertex's 64 lane depths share a cache line.
type laneRing struct {
	n     int
	roots [lanes]mcbfs.Vertex
	sc    [lanes]scalars
	depth []uint8
}

func newLaneRing(n int) *laneRing {
	lr := &laneRing{n: n, depth: make([]uint8, n*lanes)}
	for i := range lr.depth {
		lr.depth[i] = unreached
	}
	return lr
}

// store copies the last reference run into lane l.
func (lr *laneRing) store(l int, root uint32, r *ref) {
	for v := 0; v < lr.n; v++ {
		lr.depth[v*lanes+l] = unreached
	}
	for _, v := range r.queue {
		lr.depth[int(v)*lanes+l] = r.depth[v]
	}
	lr.roots[l] = mcbfs.Vertex(root)
	lr.sc[l] = r.scalars()
}

// validateBatch checks every lane of an MS-BFS batch with the Graph500
// rules, against the ring's reference answers.
func (lr *laneRing) validateBatch(g *csr, res *mcbfs.BatchResult) error {
	if res.Lanes != lanes {
		return fmt.Errorf("batch ran %d lanes, want %d", res.Lanes, lanes)
	}
	for l := 0; l < lanes; l++ {
		if res.Err[l] != nil {
			return fmt.Errorf("lane %d: %v", l, res.Err[l])
		}
		if err := checkScalars(uint32(lr.roots[l]), lr.sc[l], res.Reached[l], res.Levels[l], res.Edges[l]); err != nil {
			return fmt.Errorf("lane %d: %v", l, err)
		}
	}
	for v := 0; v < lr.n; v++ {
		row := lr.depth[v*lanes : (v+1)*lanes]
		var want uint64
		for l, d := range row {
			if d != unreached {
				want |= 1 << l
			}
		}
		seen := res.SeenMask(mcbfs.Vertex(v))
		if seen != want {
			return fmt.Errorf("vertex %d reached by lanes %#x, reference %#x", v, seen, want)
		}
		for m := seen; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			p := res.ParentOf(l, mcbfs.Vertex(v))
			if row[l] == 0 {
				if p != uint32(v) {
					return fmt.Errorf("lane %d: root %d has parent %d", l, v, p)
				}
				continue
			}
			if int(p) >= lr.n || lr.depth[int(p)*lanes+l] != row[l]-1 {
				return fmt.Errorf("lane %d: vertex %d at depth %d has parent %d at a different depth", l, v, row[l], p)
			}
			if !g.hasEdge(p, uint32(v)) {
				return fmt.Errorf("lane %d: parent edge %d-%d does not exist", l, p, v)
			}
		}
	}
	return nil
}

// kphase is one timed stretch of kernel rounds.
type kphase struct {
	probe      probe
	pair       probe
	batchN     int64
	batchEdges int64 // sum of lane m_a
	batchWall  time.Duration
	batchScan  int64 // program EdgesScanned
	searches   int64
	host       windowStats
}

func (p *kphase) msbfsTEPS() float64 { return float64(p.batchEdges) / p.batchWall.Seconds() }

// The kernel's end-to-end metrics summarize its configurations by the
// geometric mean, so that each weighs the same whatever its speed: the
// multi-socket tier, whose cross-socket synchronisation follows the
// host's memory speed least, would otherwise dominate every time-weighted
// figure.

// teps is the geometric mean of the six configurations' sum(m_a) / sum(wall).
func (p *kphase) teps(cfgs []*kcfg) float64 {
	sum := math.Log(p.msbfsTEPS())
	for _, c := range cfgs {
		sum += math.Log(float64(c.edges) / c.wall.Seconds())
	}
	return math.Exp(sum / float64(len(cfgs)+1))
}

// qps is the geometric mean of the six configurations' roots answered
// per second of search time, a batch answering one root per lane.
func (p *kphase) qps(cfgs []*kcfg) float64 {
	sum := math.Log(float64(p.batchN*lanes) / p.batchWall.Seconds())
	for _, c := range cfgs {
		sum += math.Log(float64(c.searchN) / c.wall.Seconds())
	}
	return math.Exp(sum / float64(len(cfgs)+1))
}

// latency is the geometric mean of the five tiers' q-quantile search time.
func latency(cfgs []*kcfg, q float64) float64 {
	sum := 0.0
	for _, c := range cfgs {
		sum += math.Log(percentile(append([]float64(nil), c.lat...), q))
	}
	return math.Exp(sum / float64(len(cfgs)))
}

// kernelRounds runs rounds for at least d and at least minRounds. Each
// round draws a root, runs the reference BFS from it (the one-core
// probe) and the two-core probe, then every tier in rotating order; every
// batchEvery rounds it also runs one MS-BFS batch over the ring.
func kernelRounds(d time.Duration, minRounds int, k *kernelSessions, priv *csr, rf *ref, pp *pairProbe, lr *laneRing, roots, probeRoots *rng, round *int, o *outcome, sb *spanBuf) *kphase {
	p := &kphase{}
	for _, c := range k.cfgs {
		c.searchN, c.edges, c.wall, c.scanned, c.lv, c.maxW = 0, 0, 0, 0, mcbfs.LevelStats{}, 0
		if c.lat == nil {
			c.lat = make([]float64, 0, 1<<12)
		}
		c.lat = c.lat[:0]
	}
	pair0 := pp.probe
	w := startWindow()
	start := time.Now()
	for done := 0; done < minRounds || time.Since(start) < d; done++ {
		i := *round
		*round++
		root := nextRoot(priv, roots)
		req := int64(i + 1)
		if err := rf.run(root, 0); err != nil {
			o.attempted++
			o.fail(err)
			continue
		}
		p.probe.add(rf)
		sb.add("bench.reference", 0, req, time.Now().Add(-rf.dur), time.Now())
		t0 := time.Now()
		if err := pp.run(nextRoot(priv, probeRoots), nextRoot(priv, probeRoots)); err != nil {
			o.attempted++
			o.fail(err)
			continue
		}
		sb.add("bench.probe", 0, req, t0, time.Now())
		for j := range k.cfgs {
			c := k.cfgs[(i+j)%len(k.cfgs)]
			o.attempted++
			t0 := time.Now()
			res, err := c.s.Search(mcbfs.Vertex(root), mcbfs.Query{})
			t1 := time.Now()
			wall := t1.Sub(t0)
			id := sb.add("core.Searcher.Search", 0, req, t0, t1)
			p.searches++
			if err != nil {
				c.lat = append(c.lat, math.Inf(1))
				o.fail(fmt.Errorf("%s root %d: %v", c.name, root, err))
				continue
			}
			sb.child("core.search", id, req, t1, res.Duration)
			c.lat = append(c.lat, ms(wall))
			c.searchN++
			c.edges += rf.edges
			c.wall += wall
			c.scanned += res.EdgesTraversed
			for _, l := range res.PerLevel {
				c.lv.AtomicOps += l.AtomicOps
				c.lv.BitmapReads += l.BitmapReads
				c.lv.RemoteSends += l.RemoteSends
				c.lv.Steals += l.Steals
				c.lv.Edges += l.Edges
				c.maxW += l.MaxWorkerEdges * int64(res.Threads)
			}
			v0 := time.Now()
			err = rf.validateTree(root, res.Parents, mcbfs.NoParent)
			if err == nil && (res.Reached != rf.reached || res.Levels != rf.levels) {
				err = fmt.Errorf("reached/levels %d/%d, reference %d/%d", res.Reached, res.Levels, rf.reached, rf.levels)
			}
			sb.add("bench.validate", 0, req, v0, time.Now())
			if err != nil {
				o.fail(fmt.Errorf("%s root %d: %v", c.name, root, err))
			}
		}
		lr.store(i%lanes, root, rf)
		if i%batchEvery == 0 {
			o.attempted++
			t0 := time.Now()
			res, err := k.bs.Search(lr.roots[:])
			t1 := time.Now()
			id := sb.add("core.BatchSearcher.Search", 0, req, t0, t1)
			if err != nil {
				o.fail(fmt.Errorf("msbfs-64: %v", err))
				continue
			}
			sb.child("core.search", id, req, t1, res.Duration)
			p.batchN++
			p.batchWall += t1.Sub(t0)
			p.batchScan += res.EdgesScanned
			for l := 0; l < lanes; l++ {
				p.batchEdges += lr.sc[l].edges
			}
			v0 := time.Now()
			err = lr.validateBatch(priv, res)
			sb.add("bench.validate", 0, req, v0, time.Now())
			if err != nil {
				o.fail(fmt.Errorf("msbfs-64: %v", err))
			}
		}
	}
	p.host = w.end()
	p.pair = probe{edges: pp.edges - pair0.edges, dur: pp.dur - pair0.dur}
	return p
}

// nextRoot draws the next root with at least one edge.
func nextRoot(g *csr, r *rng) uint32 {
	for {
		if v := uint32(r.intn(g.numVertices())); g.degree(v) > 0 {
			return v
		}
	}
}

func runKernel(r *run) (*outcome, error) {
	const scale = 18
	n := 1 << scale
	srcs, dsts := rmatEdges(scale, 16<<scale, r.seed)
	priv := buildCSR(n, srcs, dsts)
	o := newOutcome()
	lay := map[string][]float64{}
	sb := r.tr.buf(1 << 16)

	rf := newRef(priv)
	pp := newPairProbe(priv)
	defer pp.close()
	probeRoots := streamRNG(r.seed, streamProbe)
	var k *kernelSessions
	for moreSetups(o.setup) {
		if k != nil {
			k.close()
			k = nil
		}
		var total float64
		var err error
		if k, total, err = kernelSetup(n, srcs, dsts, false, sb, lay); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, total)
		if err := sampleProbes(priv, rf, pp, probeRoots, 1, nil); err != nil {
			return nil, err
		}
	}
	o.setupPair = pp.probe
	defer func() {
		if k != nil {
			k.close()
		}
	}()
	if !r.traced {
		srcs, dsts = nil, nil
	}

	lr := newLaneRing(n)
	roots := streamRNG(r.seed, streamRoots)
	for l := 0; l < lanes; l++ {
		root := nextRoot(priv, roots)
		if err := rf.run(root, 0); err != nil {
			return nil, err
		}
		lr.store(l, root, rf)
	}
	// One untimed round, with an MS-BFS batch, warms every session.
	round := 0
	kernelRounds(0, 1, k, priv, rf, pp, lr, roots, probeRoots, &round, o, nil)
	if o.failed > 0 {
		return o, nil
	}

	timed := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		timed /= 2
	}
	runtime.GC()
	p := kernelRounds(timed, batchEvery, k, priv, rf, pp, lr, roots, probeRoots, &round, o, nil)
	o.probe, o.pair = p.probe, p.pair
	o.teps = p.teps(k.cfgs)
	o.qps = p.qps(k.cfgs)
	o.p50ms = latency(k.cfgs, 0.50)
	o.p99ms = latency(k.cfgs, 0.99)
	fmt.Printf("  kernel: %d rounds, %d MS-BFS batches\n", round, p.batchN)
	kscale := probeRef[r.workload] / p.pair.rate()
	for _, c := range k.cfgs {
		tp := float64(c.edges) / c.wall.Seconds()
		fmt.Printf("  teps.%-22s %14.6g edges/s raw %14.6g\n", c.name, tp*kscale, tp)
		o.layer["core.teps."+c.name] = tp * kscale
		o.layer["core.scanned_per_edge."+c.name] = float64(c.scanned) / float64(c.edges)
	}
	fmt.Printf("  teps.%-22s %14.6g edges/s raw %14.6g\n", "msbfs-64", p.msbfsTEPS()*kscale, p.msbfsTEPS())
	o.layer["core.teps.msbfs-64"] = p.msbfsTEPS() * kscale
	o.layer["core.batch_amortization"] = float64(p.batchEdges) / float64(p.batchScan)
	o.layer["core.allocs_per_query"] = float64(p.host.mallocs) / float64(p.searches+p.batchN)
	o.layer["runtime.gc_cycles"] = float64(p.host.gcCycles)
	o.layer["host.steal_frac"] = p.host.stealFrac
	fmt.Printf("  core.allocs_per_query %.4g, runtime.gc_cycles %d, host.steal_frac %.4f\n",
		o.layer["core.allocs_per_query"], p.host.gcCycles, p.host.stealFrac)
	for name, xs := range lay {
		o.layer[name] = median(xs)
	}
	if !r.traced {
		return o, nil
	}

	// Traced half: instrumented sessions, spans around every call.
	k.close()
	k = nil
	var err error
	if k, _, err = kernelSetup(n, srcs, dsts, true, nil, map[string][]float64{}); err != nil {
		return nil, err
	}
	kernelRounds(0, 1, k, priv, rf, pp, lr, roots, probeRoots, &round, o, nil)
	runtime.GC()
	traceStart := time.Now()
	q := kernelRounds(timed, batchEvery, k, priv, rf, pp, lr, roots, probeRoots, &round, o, sb)
	for _, c := range k.cfgs {
		ma := float64(c.edges)
		if c.name != "sequential" {
			o.layer["core.atomic_ops_per_edge."+c.name] = float64(c.lv.AtomicOps) / ma
			o.layer["core.imbalance."+c.name] = float64(c.maxW) / float64(c.lv.Edges)
		}
		if slices.Contains(bitmapTiers, c.name) {
			o.layer["core.bitmap_reads_per_edge."+c.name] = float64(c.lv.BitmapReads) / ma
		}
		if c.name == "multi-socket" {
			o.layer["core.remote_sends_per_edge.multi-socket"] = float64(c.lv.RemoteSends) / ma
			o.layer["core.steals.multi-socket"] = float64(c.lv.Steals)
		}
	}
	qscale := probeRef[r.workload] / q.pair.rate()
	o.layer["trace.overhead_frac"] = 1 - q.teps(k.cfgs)*qscale/(o.teps*kscale)
	for l, share := range r.tr.layerShares(traceStart) {
		o.layer["self_frac."+l] = share
	}
	// ValidateTree's cost is recorded here only: it scans a hub parent's
	// adjacency linearly, which would swamp any timed phase.
	var vms []float64
	for i := 0; i < 2; i++ {
		root := nextRoot(priv, roots)
		res, err := k.cfgs[0].s.Search(mcbfs.Vertex(root), mcbfs.Query{})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = mcbfs.ValidateTree(k.g, mcbfs.Vertex(root), res.Parents)
		t1 := time.Now()
		sb.add("core.ValidateTree", 0, 0, t0, t1)
		if err != nil {
			o.attempted++
			o.fail(fmt.Errorf("ValidateTree root %d: %v", root, err))
		}
		vms = append(vms, ms(t1.Sub(t0)))
	}
	o.layer["core.validate_ms"] = median(vms)
	return o, nil
}
