package mcbfs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbfs"
)

// statusDoc mirrors the /debug/bfs JSON shape the way an external
// consumer would decode it.
type statusDoc struct {
	Pool struct {
		Size int `json:"size"`
		Busy int `json:"busy"`
	} `json:"pool"`
	QPS struct {
		S1  float64 `json:"1s"`
		S10 float64 `json:"10s"`
		S60 float64 `json:"60s"`
	} `json:"qps"`
	ErrorRate struct {
		S60 float64 `json:"60s"`
	} `json:"errorRate"`
	Latency struct {
		Count uint64 `json:"count"`
		P50   string `json:"p50"`
		P999  string `json:"p999"`
	} `json:"latency"`
	Queries map[string]int64 `json:"queries"`
	Slowest []struct {
		Root       uint32 `json:"root"`
		DurationNs int64  `json:"durationNs"`
		Levels     int    `json:"levels"`
		Outcome    string `json:"outcome"`
		Captured   bool   `json:"captured"`
		PerLevel   []struct {
			Level      int              `json:"level"`
			DurationNs int64            `json:"durationNs"`
			Frontier   int64            `json:"frontier"`
			PhaseNs    map[string]int64 `json:"phaseNs"`
		} `json:"perLevel"`
	} `json:"slowest"`
}

// TestPoolServeMonitorE2E drives a monitored pool end to end: queries
// through Pool.Query, then the two HTTP surfaces — /metrics must be
// valid Prometheus text, /debug/bfs must report rolling QPS and at
// least one captured slow query with its per-level phase breakdown.
func TestPoolServeMonitorE2E(t *testing.T) {
	g, err := mcbfs.GridGraph(64, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:         2,
		Search:       mcbfs.Options{Threads: 2},
		ServeMonitor: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Telemetry() == nil {
		t.Fatal("ServeMonitor did not create a telemetry hub")
	}
	addr := pool.MonitorAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("MonitorAddr = %q, want a bound port", addr)
	}

	ctx := context.Background()
	const queries = 20
	var lastSec int64 // the wall-clock second before the last query
	var edges int64
	for i := 0; i < queries; i++ {
		lastSec = time.Now().Unix()
		res, err := pool.Query(ctx, mcbfs.Vertex(i))
		if err != nil {
			t.Fatal(err)
		}
		edges += res.EdgesTraversed
	}

	base := "http://" + addr
	mbody := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE mcbfs_query_duration_seconds histogram",
		`mcbfs_query_duration_seconds_bucket{le="+Inf"} 20`,
		"mcbfs_query_duration_seconds_count 20",
		`mcbfs_queries_total{outcome="ok"} 20`,
		"mcbfs_pool_searchers 2",
		// The per-level totals need no wiring beyond the hub.
		"mcbfs_searches_total 20",
		fmt.Sprintf("mcbfs_edges_total %d", edges),
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("/metrics missing %q\n%s", want, mbody)
		}
	}

	sbody := httpGet(t, base+"/debug/bfs")
	replySec := time.Now().Unix()
	var st statusDoc
	if err := json.Unmarshal([]byte(sbody), &st); err != nil {
		t.Fatalf("/debug/bfs JSON: %v\n%s", err, sbody)
	}
	if st.Pool.Size != 2 {
		t.Errorf("pool size = %d, want 2", st.Pool.Size)
	}
	// S1 counts only the current wall-clock second, so it is only
	// certain to see the last query when no second boundary fell
	// between that query and the reply; obs.TestStatusPage covers S1
	// with a pinned clock.
	if st.QPS.S10 <= 0 || st.QPS.S60 <= 0 {
		t.Errorf("rolling QPS not reported: %+v", st.QPS)
	}
	if lastSec == replySec && st.QPS.S1 <= 0 {
		t.Errorf("1s QPS not reported within the last query's second: %+v", st.QPS)
	} else if lastSec != replySec {
		t.Logf("a second boundary fell between the last query and the reply; S1 = %v not checked", st.QPS.S1)
	}
	if st.Latency.Count != queries || st.Latency.P50 == "" || st.Latency.P999 == "" {
		t.Errorf("latency block incomplete: %+v", st.Latency)
	}
	if st.Queries["ok"] != queries {
		t.Errorf("queries = %v, want ok=%d", st.Queries, queries)
	}
	if len(st.Slowest) == 0 {
		t.Fatal("no slowest queries reported")
	}
	// The recorder is cold (threshold 0), so every query was captured:
	// the slowest entry must carry per-level phase breakdowns.
	var captured bool
	for _, q := range st.Slowest {
		if !q.Captured || len(q.PerLevel) == 0 {
			continue
		}
		captured = true
		if q.Levels != len(q.PerLevel) {
			t.Errorf("levels = %d but perLevel has %d entries", q.Levels, len(q.PerLevel))
		}
		lv := q.PerLevel[0]
		if lv.Frontier <= 0 || lv.PhaseNs == nil {
			t.Errorf("level 0 breakdown incomplete: %+v", lv)
		}
		if _, ok := lv.PhaseNs["local-scan"]; !ok {
			t.Errorf("phaseNs missing local-scan: %v", lv.PhaseNs)
		}
		break
	}
	if !captured {
		t.Error("no slow query with a per-level breakdown was captured")
	}
}

// TestPoolMetricsSumLevelRecords checks that a Pool given only
// PoolOptions.Metrics counts every query's per-level records into it:
// concurrent queries on both Searcher slots, and each per-level total
// equals the sum over the queries' Result.PerLevel.
func TestPoolMetricsSumLevelRecords(t *testing.T) {
	g, err := mcbfs.GridGraph(48, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	var m mcbfs.Metrics
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:    2,
		Search:  mcbfs.Options{Threads: 2, Instrument: true},
		Metrics: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const clients, perClient = 4, 10
	var mu sync.Mutex
	var want mcbfs.Metrics
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				root := mcbfs.Vertex((c*perClient + i) * 37 % g.NumVertices())
				err := pool.QueryFunc(context.Background(), root, mcbfs.Query{}, func(res *mcbfs.Result) error {
					mu.Lock()
					defer mu.Unlock()
					want.Searches.Add(1)
					want.LevelsDone.Add(int64(len(res.PerLevel)))
					for _, b := range res.PerLevel {
						want.Frontier.Add(b.Frontier)
						want.Edges.Add(b.Edges)
						want.BitmapReads.Add(b.BitmapReads)
						want.AtomicOps.Add(b.AtomicOps)
						want.LocalScanNs.Add(int64(b.Phases[mcbfs.PhaseLocalScan]))
						want.BarrierWaitNs.Add(int64(b.Phases[mcbfs.PhaseBarrierWait]))
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, exp := m.Snapshot(), want.Snapshot()
	for _, k := range []string{"searches", "levelsDone", "frontier", "edges", "bitmapReads", "atomicOps", "localScanNs", "barrierWaitNs"} {
		if got[k] != exp[k] {
			t.Errorf("Metrics %s = %d, PerLevel sum %d", k, got[k], exp[k])
		}
	}
	if got["searches"] != clients*perClient || got["edges"] == 0 {
		t.Errorf("Metrics counted %d searches over %d edges, want %d searches", got["searches"], got["edges"], clients*perClient)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// TestPoolSharedTelemetryHub checks that a caller-supplied hub is used
// as-is and aggregates shed traffic next to successful queries.
func TestPoolSharedTelemetryHub(t *testing.T) {
	g, err := mcbfs.GridGraph(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: 1})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 1},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Telemetry() != tel {
		t.Fatal("pool did not adopt the supplied hub")
	}
	if _, err := pool.Query(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := tel.OutcomeCount(mcbfs.OutcomeOK); got != 1 {
		t.Errorf("ok count = %d, want 1", got)
	}

	// Saturate: hold the only Searcher, then shed a query.
	hold := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- pool.QueryFunc(context.Background(), 0, mcbfs.Query{}, func(*mcbfs.Result) error {
			close(hold)
			time.Sleep(50 * time.Millisecond)
			return nil
		})
	}()
	<-hold
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := pool.Query(ctx, 0); err == nil {
		t.Fatal("expected shed error")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := tel.OutcomeCount(mcbfs.OutcomeShed); got != 1 {
		t.Errorf("shed count = %d, want 1", got)
	}
}

// TestPoolQueryTelemetryZeroAlloc locks in the acceptance criterion:
// a warm Query with full telemetry enabled performs zero heap
// allocations per operation.
func TestPoolQueryTelemetryZeroAlloc(t *testing.T) {
	g, err := mcbfs.GridGraph(64, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny flight ring so the warmup below exercises every slot's
	// PerLevel capacity; all searches run from one root, so captured
	// breakdowns have identical length and the slots reach steady state.
	tel := mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: 1, FlightSize: 8})
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{
		Size:      1,
		Search:    mcbfs.Options{Threads: 2},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	for i := 0; i < 128; i++ { // warm: past the first threshold refresh
		if _, err := pool.Query(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pool.Query(ctx, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm telemetry-enabled Query allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkServeTelemetryOverhead compares warm pool queries with
// telemetry off and on; the acceptance budget for the telemetry path is
// a ≤2% throughput cost. The workload is a shallow wide graph (the
// serving shape): telemetry's only per-query cost scales with level
// count, so a small-world graph with a handful of levels is where the
// budget must hold — a deep narrow graph (e.g. a grid, hundreds of
// levels of tiny frontiers) pays proportionally more for its phase
// timestamps, as any per-level instrument does.
func BenchmarkServeTelemetryOverhead(b *testing.B) {
	g, err := mcbfs.UniformGraph(1<<16, 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("telemetry=%v", enabled), func(b *testing.B) {
			opt := mcbfs.PoolOptions{Size: 1, Search: mcbfs.Options{Threads: 2}}
			if enabled {
				opt.Telemetry = mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Shards: 1})
			}
			pool, err := mcbfs.NewPool(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			ctx := context.Background()
			for i := 0; i < 80; i++ { // warm the session and the flight ring
				if _, err := pool.Query(ctx, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Query(ctx, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
