package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mcbfs"
)

// serveSpec is one closed-loop serving workload.
type serveSpec struct {
	scale     int
	callers   int
	maxLevels int // 0: full depth
	reorder   bool
	batching  bool
	// ingest: every second slice a writer Ingests a batch of edges among
	// fresh vertex ids and Rebuilds.
	ingest bool
	// scrape renders the telemetry /metrics handler every scrapeEvery.
	scrape bool
	// rootPool is how many roots the callers draw from; their reference
	// answers are computed before the timed phase.
	rootPool int
	// probeRuns is how many full reference searches each probe slice runs.
	probeRuns int
	// fullCheckEvery makes every Nth call of a caller a QueryFunc whose
	// whole tree is validated (0: never).
	fullCheckEvery int
}

const (
	scrapeEvery   = 100 * time.Millisecond
	ingestFresh   = 1024 // fresh vertices per ingest batch
	ingestEdges   = 4096 // undirected edges per ingest batch
	quietWindow   = 500 * time.Millisecond
	latencyBudget = 1 << 19 // latency samples kept per run, shared by the callers
)

func runKhop(r *run) (*outcome, error) {
	return runServe(r, serveSpec{scale: 18, callers: 2, maxLevels: 2, reorder: true, ingest: true,
		scrape: true, rootPool: 4096, probeRuns: 1, fullCheckEvery: 64})
}

func runBatch(r *run) (*outcome, error) {
	return runServe(r, serveSpec{scale: 16, callers: 16, batching: true, rootPool: 256, probeRuns: 4})
}

// servePool is one complete serving set-up.
type servePool struct {
	p       *mcbfs.Pool
	metrics *mcbfs.Metrics
	tel     *mcbfs.Telemetry
}

func serveSetup(spec serveSpec, n int, srcs, dsts []uint32, sb *spanBuf, lay map[string][]float64) (*servePool, float64, error) {
	g, total, err := buildGraph(n, srcs, dsts, sb, lay)
	if err != nil {
		return nil, 0, err
	}

	search := mcbfs.Options{Threads: 1, MaxLevels: spec.maxLevels}
	size := 2
	if spec.batching {
		search.Threads, size = 2, 1
	}
	if spec.reorder {
		t0 := time.Now()
		rd, err := mcbfs.Reorder(g, mcbfs.OrderDegreeGroup)
		t1 := time.Now()
		if err != nil {
			return nil, 0, err
		}
		sb.add("graph.Reorder", 0, 0, t0, t1)
		lay["graph.reorder_s"] = append(lay["graph.reorder_s"], t1.Sub(t0).Seconds())
		total += t1.Sub(t0)
		search.Reordered = rd
	}
	sp := &servePool{metrics: &mcbfs.Metrics{}}
	opt := mcbfs.PoolOptions{Size: size, Search: search, Metrics: sp.metrics}
	if spec.batching {
		opt.Batching = mcbfs.BatchingOptions{Lanes: lanes, Runners: 1}
	}
	t0 := time.Now()
	sp.tel = mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: size, Metrics: sp.metrics})
	opt.Telemetry = sp.tel
	sp.p, err = mcbfs.NewPool(g, opt)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	sb.add("pool.NewPool", 0, 0, t0, t1)
	lay["pool.new_ms"] = append(lay["pool.new_ms"], ms(t1.Sub(t0)))
	total += t1.Sub(t0)
	return sp, total.Seconds(), nil
}

// caller is one closed-loop client: it issues a query, waits for the
// reply, checks it, and issues the next, until its slice's deadline.
type caller struct {
	id      int
	spec    *serveSpec
	pool    *mcbfs.Pool
	roots   []uint32
	want    []scalars
	rng     *rng
	start   chan time.Time
	wg      *sync.WaitGroup
	sb      *spanBuf // nil while untraced
	lat     []float64
	queries int64 // answered calls, full checks included
	edges   int64 // sum of m_a of the answered calls
	calls   int64
	ended   time.Time
	o       *outcome // this caller's own attempted/failed counts

	// Full-tree checks (khop).
	rf      *ref
	parents []uint32
	got     scalars
	copyOut func(*mcbfs.Result) error
}

func (c *caller) keep(res *mcbfs.Result) error {
	c.parents = append(c.parents[:0], res.Parents...)
	c.got = scalars{res.Reached, res.Levels, res.EdgesTraversed}
	return nil
}

func (c *caller) loop() {
	ctx := context.Background()
	for dl := range c.start {
		for time.Now().Before(dl) {
			i := c.rng.intn(len(c.roots))
			root, want := c.roots[i], c.want[i]
			c.calls++
			req := int64(c.id)<<40 | c.calls
			c.o.attempted++
			if c.spec.fullCheckEvery > 0 && c.calls%int64(c.spec.fullCheckEvery) == 0 {
				c.fullCheck(ctx, root, want, req)
				continue
			}
			t0 := time.Now()
			var res mcbfs.Result
			var err error
			if c.spec.batching {
				res, err = c.pool.Query(ctx, mcbfs.Vertex(root))
			} else {
				res, err = c.pool.Search(ctx, mcbfs.Vertex(root), mcbfs.Query{})
			}
			t1 := time.Now()
			if id := c.sb.add("pool.Search", 0, req, t0, t1); err == nil {
				c.sb.child("core.search", id, req, t1, res.Duration)
			}
			if err == nil {
				err = checkScalars(root, want, res.Reached, res.Levels, res.EdgesTraversed)
			}
			if err != nil {
				c.o.fail(err)
				if len(c.lat) < cap(c.lat) {
					c.lat = append(c.lat, math.Inf(1))
				}
				continue
			}
			if len(c.lat) < cap(c.lat) {
				c.lat = append(c.lat, ms(t1.Sub(t0)))
			}
			c.queries++
			c.edges += want.edges
		}
		c.ended = time.Now()
		c.wg.Done()
	}
}

// fullCheck runs one QueryFunc, copies the tree out while the Searcher
// is held, and validates it against a fresh reference search.
func (c *caller) fullCheck(ctx context.Context, root uint32, want scalars, req int64) {
	t0 := time.Now()
	err := c.pool.QueryFunc(ctx, mcbfs.Vertex(root), mcbfs.Query{}, c.copyOut)
	t1 := time.Now()
	c.sb.add("pool.QueryFunc", 0, req, t0, t1)
	if err == nil {
		err = checkScalars(root, want, c.got.reached, c.got.levels, c.got.edges)
	}
	if err == nil {
		if err = c.rf.run(root, c.spec.maxLevels); err == nil {
			err = c.rf.validateTree(root, c.parents, mcbfs.NoParent)
		}
		c.sb.add("bench.validate", 0, req, t1, time.Now())
	}
	if err != nil {
		c.o.fail(fmt.Errorf("full tree of root %d: %v", root, err))
		return
	}
	c.queries++
	c.edges += want.edges
}

// discard is a minimal http.ResponseWriter for rendering /metrics
// in-process.
type discard struct {
	h   http.Header
	buf bytes.Buffer
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return d.buf.Write(p) }
func (d *discard) WriteHeader(int)             {}

// sphase is one timed stretch of serving slices.
type sphase struct {
	probe   probe
	pair    probe
	wall    time.Duration // serving time, probe slices excluded
	queries int64
	edges   int64
	host    windowStats
}

func (p *sphase) qps() float64 { return float64(p.queries) / p.wall.Seconds() }

// server runs the callers, the writer, the scraper and the probe.
type server struct {
	spec     serveSpec
	sp       *servePool
	callers  []*caller
	wg       sync.WaitGroup
	rf       *ref
	pp       *pairProbe
	probeRng *rng
	priv     *csr
	sb       *spanBuf // coordinator spans
	o        *outcome

	ingestRng *rng
	nextFresh uint32
	epoch     int64
	scrapeW   *discard
	scrapeReq *http.Request
	scrapes   []float64
	ingests   []float64
	rebuilds  []float64
	drainMax  int
}

// slices runs count slices of length d each: callers serve until the
// slice's deadline, then pause while the probe runs alone.
func (s *server) slices(count int, d time.Duration, writer bool) *sphase {
	p := &sphase{}
	pair0 := s.pp.probe
	q0, e0 := s.totals()
	w := startWindow()
	for i := 0; i < count; i++ {
		start := time.Now()
		dl := start.Add(d)
		s.wg.Add(len(s.callers))
		for _, c := range s.callers {
			c.start <- dl
		}
		rebuild := writer && s.spec.ingest && i%2 == 1
		rebuildAt := start.Add(d / 4)
		nextScrape := start.Add(scrapeEvery)
		for {
			now := time.Now()
			if !now.Before(dl) {
				break
			}
			next := dl
			if rebuild && rebuildAt.Before(next) {
				next = rebuildAt
			}
			if writer && s.spec.scrape && nextScrape.Before(next) {
				next = nextScrape
			}
			time.Sleep(next.Sub(now))
			now = time.Now()
			if rebuild && !now.Before(rebuildAt) {
				s.rebuild()
				rebuild = false
			}
			if writer && s.spec.scrape && !now.Before(nextScrape) {
				s.scrape()
				nextScrape = nextScrape.Add(scrapeEvery)
			}
		}
		s.wg.Wait()
		end := start
		for _, c := range s.callers {
			if c.ended.After(end) {
				end = c.ended
			}
		}
		p.wall += end.Sub(start)
		t0 := time.Now()
		if err := sampleProbes(s.priv, s.rf, s.pp, s.probeRng, s.spec.probeRuns, &p.probe); err != nil {
			s.o.attempted++
			s.o.fail(err)
		}
		s.sb.add("bench.probe", 0, 0, t0, time.Now())
	}
	p.host = w.end()
	p.pair = probe{edges: s.pp.edges - pair0.edges, dur: s.pp.dur - pair0.dur}
	q1, e1 := s.totals()
	p.queries, p.edges = q1-q0, e1-e0
	return p
}

func (s *server) totals() (queries, edges int64) {
	for _, c := range s.callers {
		queries += c.queries
		edges += c.edges
	}
	return queries, edges
}

// rebuild ingests a batch of edges among fresh vertex ids, both
// directions, then rebuilds: new edges touch only fresh vertices, so
// every old root's answer stays exact.
func (s *server) rebuild() {
	edges := make([]mcbfs.Edge, 0, 2*ingestEdges)
	for i := 0; i < ingestEdges; i++ {
		u := s.nextFresh + uint32(s.ingestRng.intn(ingestFresh))
		v := s.nextFresh + uint32(s.ingestRng.intn(ingestFresh))
		edges = append(edges, mcbfs.Edge{Src: mcbfs.Vertex(u), Dst: mcbfs.Vertex(v)}, mcbfs.Edge{Src: mcbfs.Vertex(v), Dst: mcbfs.Vertex(u)})
	}
	s.nextFresh += ingestFresh
	s.o.attempted++
	t0 := time.Now()
	_, err := s.sp.p.Ingest(edges)
	t1 := time.Now()
	s.sb.add("pool.Ingest", 0, 0, t0, t1)
	if err != nil {
		s.o.fail(fmt.Errorf("ingest: %v", err))
		return
	}
	epoch, err := s.sp.p.Rebuild()
	t2 := time.Now()
	s.sb.add("pool.Rebuild", 0, 0, t1, t2)
	if err == nil && epoch != s.epoch+1 {
		err = fmt.Errorf("rebuild moved epoch %d to %d", s.epoch, epoch)
	}
	if err != nil {
		s.o.fail(fmt.Errorf("rebuild: %v", err))
		return
	}
	s.epoch = epoch
	s.ingests = append(s.ingests, float64(t1.Sub(t0))/1e3)
	s.rebuilds = append(s.rebuilds, ms(t2.Sub(t0)))
	s.noteDraining()
}

func (s *server) noteDraining() {
	if d := s.sp.p.Draining(); d > s.drainMax {
		s.drainMax = d
	}
}

// scrape renders the telemetry /metrics handler in-process.
func (s *server) scrape() {
	s.o.attempted++
	s.scrapeW.buf.Reset()
	t0 := time.Now()
	s.sp.tel.MetricsHandler().ServeHTTP(s.scrapeW, s.scrapeReq)
	t1 := time.Now()
	s.sb.add("obs.scrape", 0, 0, t0, t1)
	if !bytes.Contains(s.scrapeW.buf.Bytes(), []byte("mcbfs_query_duration_seconds_count")) {
		s.o.fail(fmt.Errorf("/metrics lacks the query latency histogram"))
		return
	}
	s.scrapes = append(s.scrapes, ms(t1.Sub(t0)))
	s.noteDraining()
}

func runServe(r *run, spec serveSpec) (*outcome, error) {
	n := 1 << spec.scale
	srcs, dsts := rmatEdges(spec.scale, 16<<spec.scale, r.seed)
	priv := buildCSR(n, srcs, dsts)
	o := newOutcome()
	lay := map[string][]float64{}
	rf := newRef(priv)
	pp := newPairProbe(priv)
	defer pp.close()
	probeRng := streamRNG(r.seed, streamProbe)
	setupSpans := r.tr.buf(1 << 8)
	var sp *servePool
	for moreSetups(o.setup) {
		if sp != nil {
			_ = sp.p.Close()
		}
		var total float64
		var err error
		if sp, total, err = serveSetup(spec, n, srcs, dsts, setupSpans, lay); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, total)
		if err := sampleProbes(priv, rf, pp, probeRng, spec.probeRuns, nil); err != nil {
			return nil, err
		}
	}
	o.setupPair = pp.probe
	defer sp.p.Close()
	srcs, dsts = nil, nil

	// Reference answers of the root pool.
	roots := pickRoots(priv, spec.rootPool, r.seed, streamRoots)
	want := make([]scalars, len(roots))
	for i, root := range roots {
		if err := rf.run(root, spec.maxLevels); err != nil {
			return nil, err
		}
		want[i] = rf.scalars()
	}

	s := &server{spec: spec, sp: sp, rf: rf, pp: pp, priv: priv, o: o,
		probeRng: probeRng, ingestRng: streamRNG(r.seed, streamIngest),
		nextFresh: uint32(n), epoch: sp.p.Epoch(), scrapeW: &discard{h: http.Header{}}}
	var err error
	if s.scrapeReq, err = http.NewRequest(http.MethodGet, "/metrics", nil); err != nil {
		return nil, err
	}
	for i := 0; i < spec.callers; i++ {
		c := &caller{id: i + 1, spec: &spec, pool: sp.p, roots: roots, want: want,
			rng: streamRNG(r.seed, 100+i), start: make(chan time.Time), wg: &s.wg,
			lat: make([]float64, 0, latencyBudget/spec.callers), o: newOutcome()}
		if spec.fullCheckEvery > 0 {
			c.rf = newRef(priv)
			c.parents = make([]uint32, 0, n+64*ingestFresh)
			c.copyOut = c.keep
		}
		s.callers = append(s.callers, c)
		go c.loop()
	}
	defer func() {
		for _, c := range s.callers {
			close(c.start)
		}
	}()

	// Warm-up doubles as the quiet window for allocations per query: no
	// writer, no scrape, no tracing.
	runtime.GC()
	quiet := s.slices(1, quietWindow, false)
	o.layer["core.allocs_per_query"] = float64(quiet.host.mallocs) / float64(quiet.queries)
	for _, c := range s.callers {
		c.lat = c.lat[:0]
	}

	count := int(math.Round(r.seconds))
	if count < 2 {
		count = 2
	}
	d := time.Duration(r.seconds * float64(time.Second) / float64(count))
	if r.traced {
		count /= 2
	}
	p := s.slices(count, d, true)
	var lat []float64
	for _, c := range s.callers {
		lat = append(lat, c.lat...)
	}
	o.probe, o.pair = p.probe, p.pair
	o.qps = p.qps()
	o.teps = float64(p.edges) / p.wall.Seconds()
	o.p50ms = percentile(lat, 0.50)
	o.p99ms = percentile(lat, 0.99)
	fmt.Printf("  serving: %d queries in %.3f s over %d slices, %d latency samples, epoch %d\n",
		p.queries, p.wall.Seconds(), count, len(lat), s.epoch)
	o.layer["runtime.gc_cycles"] = float64(p.host.gcCycles)
	o.layer["host.steal_frac"] = p.host.stealFrac
	fmt.Printf("  core.allocs_per_query %.4g, runtime.gc_cycles %d, host.steal_frac %.4f\n",
		o.layer["core.allocs_per_query"], p.host.gcCycles, p.host.stealFrac)

	if r.traced {
		pscale := probeRef[r.workload] / p.pair.rate()
		s.sb = r.tr.buf(1 << 12)
		for _, c := range s.callers {
			c.sb = r.tr.buf(1 << 17)
		}
		traceStart := time.Now()
		q := s.slices(count, d, true)
		qscale := probeRef[r.workload] / q.pair.rate()
		o.layer["trace.overhead_frac"] = 1 - q.qps()*qscale/(p.qps()*pscale)
		o.layer["pool.overhead_us"] = median(r.tr.spanSelf("pool.Search")) / 1e3
		for l, share := range r.tr.layerShares(traceStart) {
			o.layer["self_frac."+l] = share
		}
	}
	for _, c := range s.callers {
		o.attempted += c.o.attempted
		o.failed += c.o.failed
		o.errs = append(o.errs, c.o.errs...)
	}
	for name, xs := range lay {
		o.layer[name] = median(xs)
	}
	o.layer["obs.scrape_ms"] = median(s.scrapes)
	o.layer["pool.ingest_us"] = median(s.ingests)
	o.layer["pool.rebuild_ms"] = median(s.rebuilds)
	o.layer["pool.draining_max"] = float64(s.drainMax)
	if spec.batching {
		m := sp.metrics
		o.layer["pool.batch_width"] = float64(m.BatchLanes.Load()) / float64(m.BatchTraversals.Load())
		o.layer["pool.batch_amortization"] = float64(m.BatchLaneEdges.Load()) / float64(m.BatchEdges.Load())
	}
	if spec.ingest {
		fmt.Printf("  pool.rebuild_ms %.4g (median of %d), pool.ingest_us %.4g, obs.scrape_ms %.4g\n",
			o.layer["pool.rebuild_ms"], len(s.rebuilds), o.layer["pool.ingest_us"], o.layer["obs.scrape_ms"])
	}
	return o, nil
}
