package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// countdownCtx is a deterministic cancellation source: Err reports
// context.Canceled starting with the (after+1)-th call. SearchContext
// itself polls Err once on entry and the search polls it at every level
// barrier (plus worker chunk checkpoints), so small values of after
// cancel within the first few levels without any timing dependence.
type countdownCtx struct {
	after int64
	calls atomic.Int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// chainPlusIsland builds the reset-property graph: a 1000-vertex chain
// (many levels, so mid-search cancellation lands inside it) plus the
// disconnected edge 1000-1001 whose search exposes any state the
// aborted search left behind.
func chainPlusIsland(t *testing.T) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 1000)
	for i := 0; i < 999; i++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(i), Dst: graph.Vertex(i + 1)})
	}
	edges = append(edges, graph.Edge{Src: 1000, Dst: 1001})
	directed, err := graph.FromEdges(1002, edges)
	if err != nil {
		t.Fatal(err)
	}
	return directed.Undirected()
}

// expectPristineAfter runs the island search and checks the session sees
// exactly pristine state: the two island vertices claimed, every other
// parent back to NoParent. Any vertex the previous (aborted) search
// claimed but failed to record on its touched list shows up here as a
// stale parent.
func expectPristineAfter(t *testing.T, s *Searcher, when string) {
	t.Helper()
	res, err := s.BFS(1000)
	if err != nil {
		t.Fatalf("%s: island search: %v", when, err)
	}
	if res.Reached != 2 {
		t.Fatalf("%s: island search reached %d vertices, want 2", when, res.Reached)
	}
	for v, p := range res.Parents {
		switch v {
		case 1000, 1001:
			if p != 1000 {
				t.Fatalf("%s: island vertex %d has parent %d, want 1000", when, v, p)
			}
		default:
			if p != NoParent {
				t.Fatalf("%s: stale parent %d for vertex %d after aborted search", when, p, v)
			}
		}
	}
}

// TestSearchContextPreCancelled checks the dead-on-arrival path: a
// context that is already cancelled returns its error before any session
// state is dirtied, and the session keeps answering exactly.
func TestSearchContextPreCancelled(t *testing.T) {
	g := chainPlusIsland(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			s, err := NewSearcher(g, v.opt(g))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.SearchContext(ctx, 0, Query{})
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled search: res=%v err=%v, want nil, context.Canceled", res, err)
			}
			expectPristineAfter(t, s, "after DOA search")
			full, err := s.BFS(0)
			if err != nil {
				t.Fatal(err)
			}
			expectSameTree(t, g, full, v.name != "hybrid")
		})
	}
}

// TestSearchContextCancelMidSearch is the satellite regression for the
// partial-touch-set bug: cancel at several depths into the chain —
// including right at level 0, where only the root's seeded parent entry
// exists — then prove the next queries on the same session match a
// fresh one exactly, for every tier.
func TestSearchContextCancelMidSearch(t *testing.T) {
	g := chainPlusIsland(t)
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			s, err := NewSearcher(g, v.opt(g))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// after=1 admits the entry poll and cancels at the very first
			// in-search poll; larger values land deeper into the chain.
			for _, after := range []int64{1, 3, 16} {
				ctx := &countdownCtx{after: after}
				res, err := s.SearchContext(ctx, 0, Query{})
				if res != nil {
					t.Fatalf("after=%d: cancelled search returned a result", after)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
				}
				expectPristineAfter(t, s, "after mid-search cancel")
				full, err := s.BFS(0)
				if err != nil {
					t.Fatal(err)
				}
				expectSameTree(t, g, full, v.name != "hybrid")
			}
		})
	}
}

// wideLeaves is the width of wideLevelPlusIsland's wide level.
const wideLeaves = 499

// wideLevelPlusIsland builds the in-level cancellation graph: root 0
// joined to the leaves 1..wideLeaves, each leaf joined to one pendant
// of its own (wideLeaves+1..2*wideLeaves), and the island edge
// 1000-1001 of chainPlusIsland, so expectPristineAfter applies (vertex
// 999 is isolated). The leaves form a level of far more than
// cancelCheckMask+1 frontier vertices, each discovering one vertex, so
// context polls land inside it, after some of its discoveries and
// before others.
func wideLevelPlusIsland(t *testing.T) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 2*wideLeaves+1)
	for i := 1; i <= wideLeaves; i++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: graph.Vertex(i)},
			graph.Edge{Src: graph.Vertex(i), Dst: graph.Vertex(wideLeaves + i)})
	}
	edges = append(edges, graph.Edge{Src: 1000, Dst: 1001})
	directed, err := graph.FromEdges(1002, edges)
	if err != nil {
		t.Fatal(err)
	}
	return directed.Undirected()
}

// errPollPanic is what panicCtx panics with.
var errPollPanic = errors.New("context poll panicked")

// panicCtx is countdownCtx whose (after+1)-th Err call panics instead
// of reporting cancellation.
type panicCtx struct{ countdownCtx }

func (c *panicCtx) Err() error {
	if c.calls.Add(1) > c.after {
		panic(errPollPanic)
	}
	return nil
}

// expectQueueIsTouchedSet checks the sequential tier's exit invariant
// on an unwound session: its queue holds exactly the vertices whose
// parent entries the search wrote.
func expectQueueIsTouchedSet(t *testing.T, s *Searcher, when string) {
	t.Helper()
	queued := make(map[uint32]bool, s.q.Size())
	for _, v := range s.q.Slice() {
		if queued[v] {
			t.Fatalf("%s: vertex %d queued twice", when, v)
		}
		queued[v] = true
	}
	for v, p := range s.parents {
		if (p != NoParent) != queued[uint32(v)] {
			t.Fatalf("%s: vertex %d has parent %d but queued=%v (queue holds %d vertices)",
				when, v, p, queued[uint32(v)], len(queued))
		}
	}
}

// TestSearchContextCancelInWideLevel cancels every tier at context
// polls inside a level wide enough to hold several of them, the exit
// at which a tier must still leave every claimed vertex on its queue:
// the sequential tier's unpublished appends, the parallel tiers'
// unflushed batches. One-vertex chunks make the parallel tiers poll
// per frontier vertex too, and the direction-optimizing tier runs top
// down, since its bottom-up sweep polls once per 4096 vertices. After
// each abort the session must be pristine and answer exactly; on the
// sequential tier the abort must land inside the wide level, the
// query's recorded Reached must equal its touched list, and a context
// whose Err panics at the same poll must leave the same state.
func TestSearchContextCancelInWideLevel(t *testing.T) {
	g := wideLevelPlusIsland(t)
	defer SetDirection(SetDirection(DirectionTopDown))
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			tel := obs.NewTelemetry(obs.TelemetryOptions{})
			opt := v.opt(g)
			opt.Telemetry = tel
			s, err := newSearcher(g, opt, schedule{chunk: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sequential := v.name == "sequential"
			// The entry poll and the one at the root level's barrier come
			// first, so after=2 cancels at the first poll inside the leaf
			// level and after=3 at the second.
			for _, after := range []int64{2, 3} {
				res, err := s.SearchContext(&countdownCtx{after: after}, 0, Query{})
				if res != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("after=%d: res=%v err=%v, want nil, context.Canceled", after, res, err)
				}
				// Every leaf is on the touched list; some pendants are, and
				// others are not.
				touched := int64(0)
				if s.q != nil {
					touched += int64(s.q.Size())
				}
				for _, q := range s.qs {
					touched += int64(q.Size())
				}
				if touched <= 1+wideLeaves || touched >= 1+2*wideLeaves {
					t.Fatalf("after=%d: abort left %d vertices touched, want one inside the leaf level's expansion (%d, %d)",
						after, touched, 1+wideLeaves, 1+2*wideLeaves)
				}
				if sequential {
					// The abort comes at frontier vertex (after-1)*64 of the
					// search, before it is expanded: the root and the leaves
					// before it have discovered their neighbours.
					want := 1 + wideLeaves + (after-1)*(cancelCheckMask+1) - 2
					if touched != want {
						t.Fatalf("after=%d: touched list holds %d vertices, want %d", after, touched, want)
					}
					if rec := tel.Flight().Records()[0]; rec.Reached != touched {
						t.Fatalf("after=%d: recorded Reached %d, touched list %d", after, rec.Reached, touched)
					}
					expectQueueIsTouchedSet(t, s, "after in-level cancel")
				}
				expectPristineAfter(t, s, "after in-level cancel")
				full, err := s.BFS(0)
				if err != nil {
					t.Fatal(err)
				}
				expectSameTree(t, g, full, true)
			}
			if !sequential {
				return
			}
			// The sequential tier runs on the caller's goroutine, so a
			// panic at the poll unwinds to this test.
			for _, after := range []int64{2, 3} {
				func() {
					defer func() {
						if r := recover(); r != errPollPanic {
							t.Fatalf("after=%d: recovered %v, want the context's panic", after, r)
						}
					}()
					s.SearchContext(&panicCtx{countdownCtx{after: after}}, 0, Query{})
				}()
				if got, want := int64(s.q.Size()), 1+wideLeaves+(after-1)*(cancelCheckMask+1)-2; got != want {
					t.Fatalf("after=%d: touched list after the panic holds %d vertices, want %d", after, got, want)
				}
				expectQueueIsTouchedSet(t, s, "after a panicking poll")
				expectPristineAfter(t, s, "after a panicking poll")
				full, err := s.BFS(0)
				if err != nil {
					t.Fatal(err)
				}
				expectSameTree(t, g, full, true)
			}
		})
	}
}

// TestCancelAtLevelBoundaryFoldsLevel checks that a search cancelled
// at a level boundary folds every level it counts before it unwinds:
// the flight record of the cancelled query carries one per-level record
// per level, on every tier.
func TestCancelAtLevelBoundaryFoldsLevel(t *testing.T) {
	g := chainPlusIsland(t)
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			tel := obs.NewTelemetry(obs.TelemetryOptions{}) // cold: captures every query
			opt := v.opt(g)
			opt.Telemetry = tel
			s, err := NewSearcher(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// after=3 admits the entry poll and the polls at the first two
			// level boundaries, and cancels at the third. The chain's
			// one-vertex levels never reach a worker's context poll.
			if _, err := s.SearchContext(&countdownCtx{after: 3}, 0, Query{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			rec := tel.Flight().Records()[0]
			if rec.Outcome != obs.OutcomeCancelled || rec.Levels != 3 || len(rec.PerLevel) != rec.Levels {
				t.Errorf("cancelled query: outcome %v, %d levels, %d per-level records; want cancelled, 3, 3",
					rec.Outcome, rec.Levels, len(rec.PerLevel))
			}
		})
	}
}

// TestSearchContextPostCompletion checks that cancelling after a search
// completed affects nothing: the returned Result stays valid and the
// session keeps serving.
func TestSearchContextPostCompletion(t *testing.T) {
	g := chainPlusIsland(t)
	s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	res, err := s.SearchContext(ctx, 0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if res.Reached != 1000 {
		t.Fatalf("reached %d, want 1000", res.Reached)
	}
	if err := ValidateTree(g, 0, res.Parents); err != nil {
		t.Fatalf("tree invalid after post-completion cancel: %v", err)
	}
	full, err := s.SearchContext(context.Background(), 0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	expectSameTree(t, g, full, true)
}

// TestSearchContextDeadlineBounded checks the wall-clock promise: a
// deadline that fires mid-search unwinds promptly (well under the time
// the full search would need), and the session then answers exactly.
func TestSearchContextDeadlineBounded(t *testing.T) {
	// A long chain maximizes levels: the uncancelled search crosses
	// ~30000 level barriers, so a few-millisecond deadline is guaranteed
	// to fire mid-search, and the barrier-level cancellation poll must
	// unwind it in a handful of levels.
	g := must(gen.Chain(30000)).Undirected()
	s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := s.SearchContext(ctx, 0, Query{})
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline search: res=%v err=%v, want nil, context.DeadlineExceeded", res, err)
	}
	// Generous bound: detection happens within one level of the 2ms
	// deadline, so anything near a second means the poll is broken.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled search took %v to unwind", elapsed)
	}

	full, err := s.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	ref := run(t, g, 0, Options{Algorithm: AlgSequential, Threads: 1})
	if full.Reached != ref.Reached || full.Levels != ref.Levels {
		t.Fatalf("after deadline abort: reached %d levels %d, fresh BFS %d/%d",
			full.Reached, full.Levels, ref.Reached, ref.Levels)
	}
}

// TestSearcherCloseJoinsWorkers is the Close-join regression (the
// PinThreads unpin race): churn pinned sessions of both kinds back to
// back and check no pool goroutine outlives its Close.
func TestSearcherCloseJoinsWorkers(t *testing.T) {
	g := must(gen.Uniform(5000, 8, 3))
	base := runtime.NumGoroutine()
	for _, k := range sessionKinds {
		for i := 0; i < 8; i++ {
			s, err := k.open(g, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.query(graph.Vertex(i * 97 % 5000)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Close joins: every worker has run its deferred unpin before
			// the next, equally pinned session starts. A worker past its
			// deferred wg.Done is still counted until it exits, so wait
			// for the count to return to baseline; one that never exits
			// fails.
			deadline := time.Now().Add(5 * time.Second)
			for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					t.Fatalf("%s iteration %d: %d goroutines alive 5s after Close, started with %d", k.name, i, n, base)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
