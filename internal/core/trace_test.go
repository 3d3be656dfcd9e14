package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/topology"
)

// traceOptions enumerates one tracing configuration per algorithm tier.
func traceOptions(t *testing.T) []Options {
	t.Helper()
	return []Options{
		{Algorithm: AlgSequential, Threads: 1},
		{Algorithm: AlgParallelSimple, Threads: 3},
		{Algorithm: AlgSingleSocket, Threads: 3},
		{Algorithm: AlgMultiSocket, Threads: 4, Machine: topology.Generic(2, 2, 1)},
		{Algorithm: AlgDirectionOptimizing, Threads: 3},
	}
}

func TestTraceAcrossAlgorithms(t *testing.T) {
	g, err := gen.Uniform(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range traceOptions(t) {
		opt.Trace = true
		res, err := BFS(g, 0, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Algorithm, err)
		}
		tr := res.Trace
		if tr == nil {
			t.Fatalf("%v: Options.Trace set but Result.Trace nil", opt.Algorithm)
		}
		wantWorkers := opt.Threads
		if tr.Workers != wantWorkers || len(tr.Timelines) != wantWorkers {
			t.Errorf("%v: %d workers / %d timelines, want %d",
				opt.Algorithm, tr.Workers, len(tr.Timelines), wantWorkers)
		}
		if len(tr.Levels) != res.Levels {
			t.Errorf("%v: %d level breakdowns, want %d", opt.Algorithm, len(tr.Levels), res.Levels)
		}
		var edges int64
		for i, b := range tr.Levels {
			if b.Level != i {
				t.Errorf("%v: breakdown %d has level %d", opt.Algorithm, i, b.Level)
			}
			edges += b.Edges
		}
		if edges != res.EdgesTraversed {
			t.Errorf("%v: trace edges %d != traversed %d", opt.Algorithm, edges, res.EdgesTraversed)
		}
		for w, tl := range tr.Timelines {
			if len(tl) == 0 {
				t.Errorf("%v: worker %d has an empty timeline", opt.Algorithm, w)
			}
		}
		// The trace must serialize to valid Chrome-trace JSON.
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%v: WriteChromeTrace: %v", opt.Algorithm, err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Errorf("%v: chrome trace is not valid JSON", opt.Algorithm)
		}
		if err := tr.WriteBreakdown(&bytes.Buffer{}); err != nil {
			t.Errorf("%v: WriteBreakdown: %v", opt.Algorithm, err)
		}
	}
}

// TestTraceMatchesInstrument checks that every sink carries the one
// folded per-level record, on every tier: Result.PerLevel, Trace.Levels
// and the flight recorder's PerLevel are equal level by level as whole
// structs, and the hub's Metrics totals are sums over PerLevel. Each
// session runs two searches, so the second reads records folded on a
// re-armed collector.
func TestTraceMatchesInstrument(t *testing.T) {
	g, err := gen.RMAT(11, 1<<14, gen.GTgraphDefaults, 3)
	if err != nil {
		t.Fatal(err)
	}
	second := graph.Vertex(1)
	for len(g.Neighbors(second)) == 0 {
		second++
	}
	for _, opt := range traceOptions(t) {
		t.Run(opt.Algorithm.String(), func(t *testing.T) {
			tel := obs.NewTelemetry(obs.TelemetryOptions{}) // cold: captures every query
			opt.Instrument, opt.Trace, opt.Telemetry = true, true, tel
			s, err := NewSearcher(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var levels, edges, batches, tuples, waitNs int64
			for _, root := range []graph.Vertex{0, second} {
				res, err := s.BFS(root)
				if err != nil {
					t.Fatal(err)
				}
				rec := tel.Flight().Records()[0]
				if len(res.PerLevel) != res.Levels || len(res.Trace.Levels) != res.Levels ||
					!rec.Captured || len(rec.PerLevel) != res.Levels {
					t.Fatalf("root %d, %d levels: PerLevel %d, Trace %d, flight %d (captured %v)",
						root, res.Levels, len(res.PerLevel), len(res.Trace.Levels), len(rec.PerLevel), rec.Captured)
				}
				for i, b := range res.PerLevel {
					if b != res.Trace.Levels[i] || b != rec.PerLevel[i] {
						t.Errorf("root %d level %d: PerLevel %+v, Trace %+v, flight %+v",
							root, i, b, res.Trace.Levels[i], rec.PerLevel[i])
					}
					edges += b.Edges
					batches += b.RemoteBatches
					tuples += b.RemoteTuples
					waitNs += int64(b.Phases[obs.PhaseBarrierWait])
				}
				levels += int64(res.Levels)
			}
			m := tel.Metrics()
			if m.Searches.Load() != 2 || m.LevelsDone.Load() != levels {
				t.Errorf("Metrics searches/levels %d/%d, want 2/%d", m.Searches.Load(), m.LevelsDone.Load(), levels)
			}
			if m.Edges.Load() != edges || m.RemoteBatches.Load() != batches ||
				m.RemoteTuples.Load() != tuples || m.BarrierWaitNs.Load() != waitNs {
				t.Errorf("Metrics edges/batches/tuples/barrier-ns %d/%d/%d/%d, PerLevel sums %d/%d/%d/%d",
					m.Edges.Load(), m.RemoteBatches.Load(), m.RemoteTuples.Load(), m.BarrierWaitNs.Load(),
					edges, batches, tuples, waitNs)
			}
			if opt.Algorithm == AlgMultiSocket && tuples == 0 {
				t.Error("multi-socket searches flushed no remote batch; pick a bigger graph")
			}
		})
	}
}

// TestMultiSocketLevelRecords checks that the remote flushes and barrier
// waits workers record in a multi-socket search reach the folded
// per-level records and, through the telemetry hub, its Metrics, and
// that neither Instrument nor Telemetry retains a full trace.
func TestMultiSocketLevelRecords(t *testing.T) {
	g, err := gen.Uniform(1<<12, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.NewTelemetry(obs.TelemetryOptions{})
	res, err := BFS(g, 0, Options{
		Algorithm: AlgMultiSocket, Threads: 4,
		Machine: topology.Generic(2, 2, 1), Telemetry: tel, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Instrument and Telemetry must not retain a full trace")
	}
	if len(res.PerLevel) != res.Levels {
		t.Fatalf("%d level records, want %d", len(res.PerLevel), res.Levels)
	}
	var sent, remoteTuples int64
	var barrierWait time.Duration
	for _, b := range res.PerLevel {
		sent += b.RemoteSends
		remoteTuples += b.RemoteTuples
		barrierWait += b.Phases[obs.PhaseBarrierWait]
	}
	if sent == 0 || remoteTuples != sent {
		t.Errorf("level records carry %d remote tuples, workers sent %d", remoteTuples, sent)
	}
	if barrierWait <= 0 {
		t.Error("level records carry no barrier wait")
	}
	m := tel.Metrics()
	if m.RemoteTuples.Load() != remoteTuples || m.BarrierWaitNs.Load() != int64(barrierWait) {
		t.Errorf("Metrics remote tuples/barrier-ns %d/%d, level records %d/%d",
			m.RemoteTuples.Load(), m.BarrierWaitNs.Load(), remoteTuples, int64(barrierWait))
	}
	if m.Searches.Load() != 1 || m.LevelsDone.Load() != int64(res.Levels) {
		t.Errorf("Metrics searches/levels %d/%d, want 1/%d", m.Searches.Load(), m.LevelsDone.Load(), res.Levels)
	}
}

func TestTraceChannelSamples(t *testing.T) {
	g, err := gen.Uniform(1<<13, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, Options{
		Algorithm: AlgMultiSocket, Threads: 4,
		Machine: topology.Generic(2, 2, 1), Trace: true, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sampleTuples int64
	for _, cs := range res.Trace.Channels {
		if cs.Socket < 0 || cs.Socket >= 2 {
			t.Errorf("channel sample socket %d out of range", cs.Socket)
		}
		sampleTuples += cs.Tuples
	}
	var remote int64
	for _, ls := range res.PerLevel {
		remote += ls.RemoteSends
	}
	if remote == 0 {
		t.Fatal("workload produced no remote sends; pick a bigger graph")
	}
	if sampleTuples != remote {
		t.Errorf("channel samples total %d tuples, RemoteSends %d", sampleTuples, remote)
	}
}

func TestTraceBarrierPhaseCoverage(t *testing.T) {
	g, err := gen.Uniform(1<<12, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, Options{Algorithm: AlgSingleSocket, Threads: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var scan, barrier time.Duration
	for _, b := range res.Trace.Levels {
		scan += b.Phases[obs.PhaseLocalScan]
		barrier += b.Phases[obs.PhaseBarrierWait]
	}
	if scan <= 0 {
		t.Error("no local-scan time recorded")
	}
	if barrier <= 0 {
		t.Error("no barrier-wait time recorded")
	}
}

// TestTraceConcurrentChromeExport runs several traced Searchers over
// one graph simultaneously, each interleaving searches with Chrome
// trace exports of its previous result — the serving-shape usage where
// a monitoring goroutine dumps traces while query traffic continues.
// Run under -race (this package is in the CI race matrix): the test
// pins down that concurrent sessions share no trace state and that
// WriteChromeTrace reads a finished Trace without racing the search
// that produces the next one on the same Searcher.
func TestTraceConcurrentChromeExport(t *testing.T) {
	g, err := gen.Uniform(1<<12, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: 2, Trace: true})
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			// export runs one behind the search: the trace being written
			// belongs to a finished query while the next one runs.
			exportDone := make(chan error, 1)
			exportDone <- nil
			var prev *obs.Trace
			for r := 0; r < rounds; r++ {
				res, err := s.BFS(0)
				if err != nil {
					<-exportDone
					errs <- err
					return
				}
				if err := <-exportDone; err != nil {
					errs <- err
					return
				}
				prev, res.Trace = res.Trace, nil
				go func(tr *obs.Trace) {
					var buf bytes.Buffer
					if err := tr.WriteChromeTrace(&buf); err != nil {
						exportDone <- err
						return
					}
					if !json.Valid(buf.Bytes()) {
						exportDone <- errTraceJSON
						return
					}
					exportDone <- nil
				}(prev)
			}
			errs <- <-exportDone
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errTraceJSON = errors.New("chrome trace is not valid JSON")

// TestTraceCorrectnessUnchanged guards against observability perturbing
// the search itself: traced and untraced runs must produce identical
// trees (modulo parent races, so compare reachability counts and
// levels).
func TestTraceCorrectnessUnchanged(t *testing.T) {
	g, err := gen.RMAT(12, 1<<15, gen.GTgraphDefaults, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range traceOptions(t) {
		base, err := BFS(g, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Trace = true
		opt.Instrument = true
		traced, err := BFS(g, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if base.Reached != traced.Reached || base.Levels != traced.Levels ||
			base.EdgesTraversed != traced.EdgesTraversed {
			t.Errorf("%v: traced run diverged: reached %d/%d levels %d/%d edges %d/%d",
				opt.Algorithm, base.Reached, traced.Reached, base.Levels, traced.Levels,
				base.EdgesTraversed, traced.EdgesTraversed)
		}
		if err := ValidateTree(g, 0, traced.Parents); err != nil {
			t.Errorf("%v: traced run produced an invalid tree: %v", opt.Algorithm, err)
		}
	}
}
