package core

import (
	"testing"

	"mcbfs/internal/obs"
)

// armedCollector readies a bare session's collector the way Search does
// for an instrumented run of the given width.
func armedCollector(t *testing.T, workers int) *obs.Collector {
	t.Helper()
	s := Searcher{threads: workers, o: Options{Algorithm: AlgSingleSocket, Instrument: true}}
	c := s.obsCollector()
	if c == nil {
		t.Fatal("Instrument did not arm the session collector")
	}
	return c
}

// endLevel closes a level the way the search's barrier does: the
// elected coordinator folds, then every worker advances.
func endLevel(c *obs.Collector, workers int) {
	c.EndLevel()
	for w := 0; w < workers; w++ {
		c.Worker(w).NextLevel()
	}
}

func TestStatsCollectorFoldMultiWorker(t *testing.T) {
	c := armedCollector(t, 3)
	c.Worker(0).AddCounters(obs.Counters{Frontier: 1, Edges: 10, BitmapReads: 8, AtomicOps: 2, RemoteSends: 1})
	c.Worker(1).AddCounters(obs.Counters{Frontier: 2, Edges: 20, BitmapReads: 16, AtomicOps: 4, RemoteSends: 2})
	c.Worker(2).AddCounters(obs.Counters{Frontier: 4, Edges: 40, BitmapReads: 32, AtomicOps: 8, RemoteSends: 4})
	// A worker may deposit more than once per level (e.g. per chunk).
	c.Worker(1).AddCounters(obs.Counters{Edges: 5})
	endLevel(c, 3)

	levels := c.Levels()
	if len(levels) != 1 {
		t.Fatalf("fold recorded %d levels, want 1", len(levels))
	}
	got := levels[0]
	// Worker 2's 40 edges are the level's straggler share.
	want := obs.Counters{Frontier: 7, Edges: 75, BitmapReads: 56, AtomicOps: 14, RemoteSends: 7,
		MaxWorkerEdges: 40}
	if got.Counters != want {
		t.Errorf("fold = %+v, want %+v", got.Counters, want)
	}
	if got.Level != 0 || got.Workers != 3 {
		t.Errorf("fold level %d workers %d, want level 0 workers 3", got.Level, got.Workers)
	}
	if got.Duration < 0 {
		t.Errorf("negative level duration %v", got.Duration)
	}
}

func TestStatsCollectorSlotsClearedBetweenLevels(t *testing.T) {
	c := armedCollector(t, 2)
	c.Worker(0).AddCounters(obs.Counters{Frontier: 5, Edges: 50})
	c.Worker(1).AddCounters(obs.Counters{AtomicOps: 3})
	endLevel(c, 2)

	// Levels 1 and 2: only worker 1 deposits. Level 2 writes the slots
	// level 0 used, so worker 0's level-0 counts must have been cleared
	// by the first fold.
	c.Worker(1).AddCounters(obs.Counters{Frontier: 1, Edges: 2, BitmapReads: 3})
	endLevel(c, 2)
	c.Worker(1).AddCounters(obs.Counters{Frontier: 1, Edges: 2, BitmapReads: 3})
	endLevel(c, 2)

	levels := c.Levels()
	if len(levels) != 3 {
		t.Fatalf("fold recorded %d levels, want 3", len(levels))
	}
	want := obs.Counters{Frontier: 1, Edges: 2, BitmapReads: 3, MaxWorkerEdges: 2}
	for l := 1; l < 3; l++ {
		if levels[l].Counters != want {
			t.Errorf("level %d fold = %+v, want %+v (stale slot data?)", l, levels[l].Counters, want)
		}
	}
}
