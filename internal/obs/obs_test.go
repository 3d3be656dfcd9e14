package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestWorkerRecPadding(t *testing.T) {
	if s := unsafe.Sizeof(WorkerRec{}); s%64 != 0 {
		t.Errorf("WorkerRec size %d is not a multiple of the cache line", s)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	wr := c.Worker(0)
	if wr != nil {
		t.Fatalf("nil collector returned non-nil worker")
	}
	start := wr.PhaseStart()
	if !start.IsZero() {
		t.Errorf("nil WorkerRec.PhaseStart touched the clock: %v", start)
	}
	// None of these may panic.
	wr.PhaseEnd(PhaseLocalScan, start)
	wr.RemoteBatch(10)
	wr.AddCounters(Counters{Edges: 1})
	wr.NextLevel()
	c.CreditFrontier(1)
	c.EndLevel()
	c.AddChannelSample(0, 1, 1, 1, 1)
	if c.Levels() != nil {
		t.Errorf("nil collector returned level records")
	}
	if c.Finish() != nil {
		t.Errorf("nil collector produced a trace")
	}
}

func TestCollectorFoldAndParity(t *testing.T) {
	c := NewCollector(Config{Workers: 3, Sockets: 1, Algorithm: "test", Trace: true})

	// Level 0: every worker deposits its counts — worker 1 twice, as a
	// worker may deposit more than once per level — a local-scan phase
	// and one remote flush.
	c.Worker(0).AddCounters(Counters{Frontier: 1, Edges: 10, BitmapReads: 8, AtomicOps: 2, RemoteSends: 1})
	c.Worker(1).AddCounters(Counters{Frontier: 2, Edges: 20, BitmapReads: 16, AtomicOps: 4, RemoteSends: 2, Steals: 1})
	c.Worker(2).AddCounters(Counters{Frontier: 4, Edges: 40, BitmapReads: 32, AtomicOps: 8, RemoteSends: 4})
	c.Worker(1).AddCounters(Counters{Edges: 5})
	for w := 0; w < 3; w++ {
		wr := c.Worker(w)
		wr.slots[0].Phases[PhaseLocalScan] = time.Duration(w+1) * time.Millisecond
		wr.RemoteBatch(5)
	}
	c.EndLevel()
	for w := 0; w < 3; w++ {
		c.Worker(w).NextLevel()
	}
	// Folding clears the slots for reuse two levels later.
	for w := 0; w < 3; w++ {
		if got := c.Worker(w).slots[0]; got != (LevelBreakdown{}) {
			t.Errorf("worker %d: parity-0 slot not cleared after fold: %+v", w, got)
		}
	}

	// Level 1, a bottom-up level: only worker 1 deposits, and the
	// coordinator credits the frontier the workers did not pop. Worker 2
	// has already moved on to level 2, whose writes land in the other
	// parity and must not leak into level 1's record.
	c.Worker(1).AddCounters(Counters{Edges: 2, BitmapReads: 3})
	c.Worker(0).slots[1].Phases[PhaseBarrierWait] = 4 * time.Millisecond
	c.CreditFrontier(6)
	c.Worker(2).NextLevel()
	c.Worker(2).AddCounters(Counters{Frontier: 100, Edges: 100})
	c.EndLevel()

	want := []LevelBreakdown{{
		Level: 0, Workers: 3,
		// Worker 2's 40 edges are the level's straggler share.
		Counters: Counters{Frontier: 7, Edges: 75, BitmapReads: 56, AtomicOps: 14, RemoteSends: 7,
			MaxWorkerEdges: 40, Steals: 1},
		RemoteBatches: 3, RemoteTuples: 15,
	}, {
		Level: 1, Workers: 3,
		Counters: Counters{Frontier: 6, Edges: 2, BitmapReads: 3, MaxWorkerEdges: 2},
	}}
	want[0].Phases[PhaseLocalScan] = 6 * time.Millisecond
	want[1].Phases[PhaseBarrierWait] = 4 * time.Millisecond
	got := c.Levels()
	if len(got) != len(want) {
		t.Fatalf("levels = %d, want %d", len(got), len(want))
	}
	for i := range want {
		// The clock stamps Start and Duration; levels tile the run.
		if got[i].Duration < 0 || (i > 0 && got[i].Start != got[i-1].Start+got[i-1].Duration) {
			t.Errorf("level %d: start %v duration %v do not follow level %d", i, got[i].Start, got[i].Duration, i-1)
		}
		want[i].Start, want[i].Duration = got[i].Start, got[i].Duration
		if got[i] != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s := c.Worker(2).slots[0]; s.Frontier != 100 || s.Edges != 100 {
		t.Errorf("level 2's early deposit was lost or folded: %+v", s.Counters)
	}

	// The trace carries a copy of the same records.
	tr := c.Finish()
	if tr == nil {
		t.Fatal("no trace")
	}
	if len(tr.Levels) != 2 || tr.Levels[0] != got[0] || tr.Levels[1] != got[1] {
		t.Errorf("trace levels %+v differ from the folded records %+v", tr.Levels, got)
	}

	// Reset re-arms any worker count, clearing what the previous run
	// left in its slots and records.
	c.Reset(Config{Workers: 4})
	if len(c.Levels()) != 0 {
		t.Errorf("Reset kept %d level records", len(c.Levels()))
	}
	for w := 0; w < 4; w++ {
		if s := c.Worker(w).slots; s != [2]LevelBreakdown{} {
			t.Errorf("worker %d: slots not cleared by Reset: %+v", w, s)
		}
	}
}

func TestSpansRecorded(t *testing.T) {
	c := NewCollector(Config{Workers: 1, Trace: true})
	wr := c.Worker(0)
	start := wr.PhaseStart()
	time.Sleep(time.Millisecond)
	wr.PhaseEnd(PhaseLocalScan, start)
	c.EndLevel()
	tr := c.Finish()
	if len(tr.Timelines) != 1 || len(tr.Timelines[0]) != 1 {
		t.Fatalf("timelines = %v", tr.Timelines)
	}
	s := tr.Timelines[0][0]
	if s.Phase != PhaseLocalScan || s.Level != 0 || s.Dur <= 0 || s.Start < 0 {
		t.Errorf("span = %+v", s)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector(Config{Workers: 2, Sockets: 2, Algorithm: "multi-socket", Trace: true})
	for w := 0; w < 2; w++ {
		wr := c.Worker(w)
		wr.PhaseEnd(PhaseLocalScan, wr.PhaseStart())
		wr.PhaseEnd(PhaseBarrierWait, wr.PhaseStart())
	}
	c.AddChannelSample(0, 100, 3, 80, 64)
	c.AddChannelSample(1, 50, 1, 50, 50)
	c.EndLevel()

	var buf bytes.Buffer
	if err := c.Finish().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var workerTracks, spans, levels, chans int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			if name, _ := e.Args["name"].(string); strings.HasPrefix(name, "worker") {
				workerTracks++
			}
		case e.Ph == "X" && strings.HasPrefix(e.Name, "level"):
			levels++
		case e.Ph == "X" && strings.Contains(e.Name, "tuples"):
			chans++
		case e.Ph == "X":
			spans++
		}
	}
	if workerTracks != 2 {
		t.Errorf("worker tracks = %d, want 2", workerTracks)
	}
	if spans != 4 {
		t.Errorf("phase spans = %d, want 4", spans)
	}
	if levels != 1 {
		t.Errorf("level events = %d, want 1", levels)
	}
	if chans != 2 {
		t.Errorf("channel events = %d, want 2", chans)
	}
}

func TestWriteBreakdown(t *testing.T) {
	tr := &Trace{Workers: 2, Levels: []LevelBreakdown{{
		Duration: 2 * time.Millisecond, Counters: Counters{Frontier: 9, Edges: 81},
	}}}
	tr.Levels[0].Phases[PhaseLocalScan] = 2 * time.Millisecond
	var buf bytes.Buffer
	if err := tr.WriteBreakdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 2ms of scan over 2 workers × 2ms = 50%.
	if !strings.Contains(out, "50.0") || !strings.Contains(out, "total") {
		t.Errorf("breakdown output:\n%s", out)
	}
}

// TestMetrics checks the hub's one route into Metrics: a recorded
// query adds the sums of its per-level records, and a query that ran
// no level (here a shed one) adds nothing.
func TestMetrics(t *testing.T) {
	var m Metrics
	tel := NewTelemetry(TelemetryOptions{Metrics: &m})
	levels := []LevelBreakdown{
		{Level: 0, Counters: Counters{Frontier: 1, Edges: 10, BitmapReads: 10, AtomicOps: 3}},
		{Level: 1, Counters: Counters{Frontier: 3, Edges: 30, BitmapReads: 20, AtomicOps: 2},
			RemoteBatches: 1, RemoteTuples: 64},
	}
	levels[0].Phases[PhaseLocalScan] = time.Millisecond
	levels[1].Phases[PhaseBarrierWait] = time.Microsecond
	levels[1].Phases[PhaseQueueDrain] = 2 * time.Microsecond
	tel.RecordQuery(0, QuerySample{Duration: time.Millisecond, Levels: 2, PerLevel: levels})
	tel.RecordShed(time.Now(), time.Millisecond)

	s := m.Snapshot()
	want := map[string]int64{
		"searches": 1, "levelsDone": 2, "frontier": 4, "edges": 40,
		"bitmapReads": 30, "atomicOps": 5, "remoteBatches": 1, "remoteTuples": 64,
		"barrierWaitNs": 1000, "localScanNs": 1e6, "queueDrainNs": 2000,
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %d, want %d", k, s[k], v)
		}
	}
}

// TestMetricsConcurrentRecording records per-level samples into one hub
// from several goroutines at once: every total must come out exact,
// with no add lost to a race between recorders.
func TestMetricsConcurrentRecording(t *testing.T) {
	const recorders, queries = 4, 500
	tel := NewTelemetry(TelemetryOptions{Shards: recorders})
	var wg sync.WaitGroup
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each recorder reuses one PerLevel buffer, as a session
			// lends its collector's records.
			levels := make([]LevelBreakdown, r+1)
			for q := 0; q < queries; q++ {
				for l := range levels {
					levels[l] = LevelBreakdown{Level: l,
						Counters:      Counters{Frontier: 1, Edges: int64(q), AtomicOps: 2},
						RemoteBatches: 1, RemoteTuples: int64(r)}
					levels[l].Phases[PhaseBarrierWait] = time.Duration(l)
				}
				tel.RecordQuery(r, QuerySample{Duration: time.Microsecond, Levels: len(levels), PerLevel: levels})
				tel.RecordShed(time.Now(), time.Microsecond)
			}
		}()
	}
	wg.Wait()

	var want Metrics
	for r := 0; r < recorders; r++ {
		lv := int64(r + 1)
		want.Searches.Add(queries)
		want.LevelsDone.Add(queries * lv)
		want.Frontier.Add(queries * lv)
		want.Edges.Add(lv * queries * (queries - 1) / 2)
		want.AtomicOps.Add(2 * queries * lv)
		want.RemoteBatches.Add(queries * lv)
		want.RemoteTuples.Add(queries * lv * int64(r))
		want.BarrierWaitNs.Add(queries * lv * (lv - 1) / 2)
	}
	got, exp := tel.Metrics().Snapshot(), want.Snapshot()
	for k, v := range exp {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if n := tel.OutcomeCount(OutcomeShed); n != recorders*queries {
		t.Errorf("shed outcomes = %d, want %d", n, recorders*queries)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseLocalScan:     "local-scan",
		PhaseQueueDrain:    "queue-drain",
		PhaseBarrierWait:   "barrier-wait",
		PhaseFrontierBuild: "frontier-build",
		PhaseBottomUpScan:  "bottom-up-scan",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}
