package obs

import (
	"bufio"
	"encoding/json"
	"expvar"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// feedTelemetry pushes a small mixed workload through a hub.
func feedTelemetry(t *Telemetry) {
	for i := 0; i < 10; i++ {
		t.RecordQuery(i, sampleWithLevels(time.Duration(i+1)*time.Millisecond, 3))
	}
	s := sampleWithLevels(50*time.Millisecond, 5)
	s.Outcome = OutcomeCancelled
	t.RecordQuery(0, s)
	t.RecordShed(time.Now(), 2*time.Millisecond)
}

// promSample matches a Prometheus text-format sample line.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?(Inf|[0-9].*))$`)

// validatePrometheus checks the exposition's line grammar, that no
// family repeats its # HELP or # TYPE line (a Prometheus parser rejects
// the second one), plus the histogram invariants: ascending le values,
// non-decreasing cumulative counts, and +Inf == _count.
func validatePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	values := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	var lastLe float64
	var lastCum float64
	typed := map[string]string{}
	described := map[string]bool{} // "HELP name" and "TYPE name" seen so far
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", n, line)
			}
			key := f[1] + " " + f[2]
			if described[key] {
				t.Fatalf("line %d: second # %s line for %s", n, f[1], f[2])
			}
			described[key] = true
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", n, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", n, m[3], err)
		}
		values[m[1]+m[2]] = v
		if m[1] == "mcbfs_query_duration_seconds_bucket" {
			leStr := strings.TrimSuffix(strings.TrimPrefix(m[2], `{le="`), `"}`)
			le, err := strconv.ParseFloat(leStr, 64)
			if leStr == "+Inf" {
				le = float64(^uint64(0))
				err = nil
			}
			if err != nil {
				t.Fatalf("line %d: bad le %q", n, leStr)
			}
			if le <= lastLe && lastLe != 0 {
				t.Fatalf("line %d: le %v not ascending (prev %v)", n, le, lastLe)
			}
			if v < lastCum {
				t.Fatalf("line %d: cumulative bucket count decreased (%v < %v)", n, v, lastCum)
			}
			lastLe, lastCum = le, v
		}
	}
	if typed["mcbfs_query_duration_seconds"] != "histogram" {
		t.Errorf("query duration not typed as histogram: %v", typed)
	}
	return values
}

func TestWriteMetricsPrometheusFormat(t *testing.T) {
	var m Metrics
	m.Searches.Add(3)
	m.TimedOut.Add(2)
	// The batch below reaches the attached Metrics through the hub alone.
	tel := NewTelemetry(TelemetryOptions{Shards: 4, Metrics: &m})
	tel.SetPoolInfo(func() PoolInfo { return PoolInfo{SearcherSlots: 8, SearchersBusy: 2} })
	tel.RecordBatch(4, 100, 300)
	tel.SetEpoch(1)
	tel.RecordSwap(2, 3*time.Millisecond)
	tel.SetOrdering(OrderingInfo{
		Order: "degree", PermNs: 1_500_000_000, RelabelNs: 500_000_000,
		HubVertices: 10, HubEdges: 600, TotalEdges: 1000,
	})
	feedTelemetry(tel)

	var b strings.Builder
	if err := tel.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	values := validatePrometheus(t, b.String())

	if got := values[`mcbfs_query_duration_seconds_bucket{le="+Inf"}`]; got != 12 {
		t.Errorf("+Inf bucket = %v, want 12", got)
	}
	if got := values["mcbfs_query_duration_seconds_count"]; got != 12 {
		t.Errorf("count = %v, want 12", got)
	}
	if got := values[`mcbfs_queries_total{outcome="ok"}`]; got != 10 {
		t.Errorf("ok outcomes = %v, want 10", got)
	}
	if got := values[`mcbfs_queries_total{outcome="cancelled"}`]; got != 1 {
		t.Errorf("cancelled outcomes = %v, want 1", got)
	}
	if got := values[`mcbfs_queries_total{outcome="shed"}`]; got != 1 {
		t.Errorf("shed outcomes = %v, want 1", got)
	}
	if got := values["mcbfs_pool_searchers"]; got != 8 {
		t.Errorf("pool size gauge = %v, want 8", got)
	}
	if got := values["mcbfs_pool_searchers_busy"]; got != 2 {
		t.Errorf("pool busy gauge = %v, want 2", got)
	}
	// The 3 pre-seeded searches plus the 11 fed queries that ran levels;
	// the shed one ran none.
	if got := values["mcbfs_searches_total"]; got != 14 {
		t.Errorf("attached metric searches = %v, want 14", got)
	}
	if got := values["mcbfs_timed_out_total"]; got != 2 {
		t.Errorf("attached metric timedOut = %v, want 2", got)
	}
	if got := values[`mcbfs_reorder_seconds{order="degree"}`]; got != 2 {
		t.Errorf("reorder seconds gauge = %v, want 2", got)
	}
	if got := values["mcbfs_hub_edge_fraction"]; got != 0.6 {
		t.Errorf("hub edge fraction gauge = %v, want 0.6", got)
	}
	if got := values["mcbfs_batch_lanes_count"]; got != 1 {
		t.Errorf("batch traversals = %v, want 1", got)
	}
	if got := values["mcbfs_batch_lanes_sum"]; got != 4 {
		t.Errorf("batch lanes = %v, want 4", got)
	}
	// The batch, swap and per-level totals are the attached Metrics'
	// counters, each written once (validatePrometheus rejects a
	// repeated family).
	for name, want := range map[string]float64{
		"mcbfs_batch_traversals_total": 1,
		"mcbfs_batch_lanes_total":      4,
		"mcbfs_batch_edges_total":      100,
		"mcbfs_batch_lane_edges_total": 300,
		"mcbfs_swaps_total":            1,
		"mcbfs_swap_ns_total":          3e6,
		"mcbfs_graph_epoch":            2,
		"mcbfs_swap_duration_seconds":  0.003,
		// The fed queries' per-level records: 10 × 3 + 5 levels of 100
		// edges each.
		"mcbfs_levels_done_total": 35,
		"mcbfs_edges_total":       3500,
	} {
		if got, ok := values[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// A counter still at zero is not written.
	if _, ok := values["mcbfs_ingested_edges_total"]; ok {
		t.Error("mcbfs_ingested_edges_total written before any ingest")
	}
}

func TestStatusPage(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{Shards: 2})
	// Pin the rolling-QPS clock: with the real clock, the wall second
	// can tick over between feedTelemetry and the handler's QPS read,
	// leaving the 1-second window empty and the assertion flaky.
	clk := &fakeClock{ns: int64(1000 * time.Second)}
	tel.ok.nowNanos = clk.now
	tel.errs.nowNanos = clk.now
	tel.SetPoolInfo(func() PoolInfo { return PoolInfo{SearcherSlots: 4, SearchersBusy: 1} })
	tel.SetOrdering(OrderingInfo{
		Order: "dbg", PermNs: 100, RelabelNs: 900,
		HubVertices: 4, HubEdges: 250, TotalEdges: 1000,
	})
	feedTelemetry(tel)

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/bfs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if st.Pool.Size != 4 || st.Pool.Busy != 1 {
		t.Errorf("pool = %+v", st.Pool)
	}
	if st.QPS.S1 <= 0 || st.QPS.S60 <= 0 {
		t.Errorf("rolling QPS missing: %+v", st.QPS)
	}
	if st.ErrorRate.S60 <= 0 {
		t.Errorf("error rate missing (cancelled+shed fed): %+v", st.ErrorRate)
	}
	if st.Latency.Count != 12 || st.Latency.P50 == "" || st.Latency.P999 == "" {
		t.Errorf("latency block = %+v", st.Latency)
	}
	if st.Queries["ok"] != 10 || st.Queries["cancelled"] != 1 || st.Queries["shed"] != 1 {
		t.Errorf("queries = %v", st.Queries)
	}
	if st.Ordering == nil || st.Ordering.Order != "dbg" || st.Ordering.ReorderNs != 1000 ||
		st.Ordering.HubVertices != 4 || st.Ordering.HubEdgeFraction != 0.25 {
		t.Errorf("ordering block = %+v", st.Ordering)
	}
	if len(st.Slowest) == 0 {
		t.Fatal("no slowest entries")
	}
	// The cold recorder captures everything, so the slowest entry (the
	// 50ms cancelled query) must carry its per-level phase breakdown.
	top := st.Slowest[0]
	if top.Duration == "" || top.DurationNs != int64(50*time.Millisecond) {
		t.Errorf("slowest = %+v", top)
	}
	if !top.Captured || len(top.PerLevel) != 5 {
		t.Fatalf("slowest entry not captured with levels: %+v", top)
	}
	if top.PerLevel[0].PhaseNs["local-scan"] <= 0 {
		t.Errorf("per-level phase nanos missing: %+v", top.PerLevel[0])
	}
	// The load-balance view: straggler share, max/mean imbalance and
	// steal count must survive into the JSON per-level records.
	if lv := top.PerLevel[0]; lv.MaxWorkerEdges != 75 || lv.Imbalance != 1.5 || lv.Steals != 3 {
		t.Errorf("level load-balance fields = %+v, want maxWorkerEdges=75 imbalance=1.5 steals=3", lv)
	}

	// /metrics over HTTP round-trips the text format.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	validatePrometheus(t, string(body))
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.RecordQuery(0, QuerySample{Duration: time.Millisecond})
	tel.RecordShed(time.Now(), time.Millisecond)
	tel.SetPoolInfo(func() PoolInfo { return PoolInfo{} })
	if tel.QPS(time.Second) != 0 || tel.ErrorRate(time.Second) != 0 {
		t.Error("nil telemetry reported rates")
	}
	if tel.Histogram() != nil || tel.Flight() != nil || tel.Metrics() != nil {
		t.Error("nil telemetry returned components")
	}
	st := tel.Status()
	if st.Latency.Count != 0 {
		t.Errorf("nil telemetry status: %+v", st)
	}
	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil telemetry wrote metrics: %q", sb.String())
	}
}

func TestPublishIdempotent(t *testing.T) {
	var m Metrics
	m.Searches.Add(1)
	// Twice on the same Metrics, and once on a second Metrics under the
	// same name: none may panic, and the first registration wins.
	m.Publish("mcbfs-test-publish")
	m.Publish("mcbfs-test-publish")
	var other Metrics
	other.Publish("mcbfs-test-publish")
	v := expvar.Get("mcbfs-test-publish")
	if v == nil {
		t.Fatal("variable not registered")
	}
	if got := v.String(); !strings.Contains(got, `"searches":1`) {
		t.Errorf("published var = %s, want the first Metrics' snapshot", got)
	}
}
