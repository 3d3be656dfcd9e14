package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/topology"
)

// sessionVariants covers every tier, including the hybrid (which needs
// a transpose; the generators used here produce symmetric graphs, so
// the graph passes as its own transpose at the call sites below).
var sessionVariants = []struct {
	name string
	opt  func(g *graph.Graph) Options
}{
	{"sequential", func(*graph.Graph) Options { return Options{Algorithm: AlgSequential, Threads: 1} }},
	{"parallel-simple", func(*graph.Graph) Options { return Options{Algorithm: AlgParallelSimple, Threads: 4} }},
	{"single-socket", func(*graph.Graph) Options { return Options{Algorithm: AlgSingleSocket, Threads: 4} }},
	{"multi-socket", func(*graph.Graph) Options {
		return Options{Algorithm: AlgMultiSocket, Threads: 4, Machine: topology.Generic(2, 2, 1)}
	}},
	{"hybrid", func(g *graph.Graph) Options {
		return Options{Algorithm: AlgDirectionOptimizing, Threads: 4, Transpose: g}
	}},
}

// expectSameTree compares a session search against a fresh sequential
// one-shot: identical depth per vertex (parent choice may differ under
// parallelism), identical reach, and a valid tree. EdgesTraversed is
// compared only when told to — the hybrid's early-exit bottom-up scans
// examine a nondeterministic edge subset.
func expectSameTree(t *testing.T, g *graph.Graph, res *Result, compareEdges bool) {
	t.Helper()
	validate(t, g, res)
	ref := run(t, g, res.Root, Options{Algorithm: AlgSequential, Threads: 1})
	if res.Reached != ref.Reached {
		t.Errorf("root %d: reached %d, fresh BFS reached %d", res.Root, res.Reached, ref.Reached)
	}
	if res.Levels != ref.Levels {
		t.Errorf("root %d: %d levels, fresh BFS %d", res.Root, res.Levels, ref.Levels)
	}
	if compareEdges && res.EdgesTraversed != ref.EdgesTraversed {
		t.Errorf("root %d: traversed %d edges, fresh BFS %d", res.Root, res.EdgesTraversed, ref.EdgesTraversed)
	}
	want := TreeDepths(ref.Parents, ref.Root)
	got := TreeDepths(res.Parents, res.Root)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("root %d: vertex %d at depth %d, fresh BFS says %d", res.Root, v, got[v], want[v])
		}
	}
}

// TestSearcherReuseAcrossRoots runs many searches from different roots
// on one session per tier and checks each against a fresh one-shot BFS.
func TestSearcherReuseAcrossRoots(t *testing.T) {
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 7)).Undirected()
	roots := []graph.Vertex{0, 17, 1023, 512, 17, 3}
	for _, v := range sessionVariants {
		t.Run(v.name, func(t *testing.T) {
			s, err := NewSearcher(g, v.opt(g))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, root := range roots {
				res, err := s.BFS(root)
				if err != nil {
					t.Fatalf("root %d: %v", root, err)
				}
				expectSameTree(t, g, res, v.name != "hybrid")
			}
		})
	}
}

// TestSearcherQueryMaxLevels checks the per-query depth bound on one
// session per tier: the session's MaxLevels applies to a zero Query, a
// negative Query.MaxLevels lifts it, and the bounded search must not
// leak its truncated frontier into the unbounded one that follows.
func TestSearcherQueryMaxLevels(t *testing.T) {
	g := must(gen.Uniform(3000, 8, 11)).Undirected()
	ref := run(t, g, 5, Options{Algorithm: AlgSequential, Threads: 1, MaxLevels: 2})
	algs := []Algorithm{
		AlgSequential, AlgMultiSocket, AlgSingleSocket,
		AlgDirectionOptimizing, AlgParallelSimple, AlgAuto,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			s, err := NewSearcher(g, Options{Algorithm: alg, Threads: 4, Transpose: g, MaxLevels: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.Search(5, Query{})
			if err != nil {
				t.Fatalf("bounded: %v", err)
			}
			if res.Levels > 2 {
				t.Fatalf("session MaxLevels=2 ignored, got %d levels", res.Levels)
			}
			if res.Reached != ref.Reached {
				t.Fatalf("bounded: reached %d, want %d", res.Reached, ref.Reached)
			}
			res, err = s.Search(5, Query{MaxLevels: -1})
			if err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			expectSameTree(t, g, res, false)
		})
	}
}

// TestSearcherTierSwitchAfterBottomUp runs searches back to back on one
// direction-optimizing session over a star. Each ends with a bottom-up
// level that finds nothing (the one after the leaves' frontier), so the
// next search must switch back and start top down.
func TestSearcherTierSwitchAfterBottomUp(t *testing.T) {
	g := must(gen.Star(2000)).Undirected()
	s, err := NewSearcher(g, Options{Algorithm: AlgDirectionOptimizing, Threads: 4, Transpose: g, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, root := range []graph.Vertex{1, 0, 1, 7} {
		res, err := s.BFS(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		expectSameTree(t, g, res, false)
		last := len(res.PerLevel) - 1
		if res.PerLevel[0].Phases[obs.PhaseBottomUpScan] != 0 {
			t.Fatalf("root %d: level 0 ran bottom up", root)
		}
		if res.PerLevel[last].Phases[obs.PhaseBottomUpScan] == 0 {
			t.Fatalf("root %d: last level %d ran top down, want bottom up", root, last)
		}
	}
}

// resetCall is how one query of TestSearcherResetCompleteness reaches
// the session.
type resetCall int

const (
	callSearch     resetCall = iota // SearchContext; the parents are checked
	callNoParents                   // SearchFunc without parents; counts only
	callCancelling                  // SearchContext cancelled partway through
)

func (c resetCall) String() string {
	return [...]string{"SearchContext", "SearchFunc without parents", "cancelled SearchContext"}[c]
}

// TestSearcherResetCompleteness is the reset property test: after a
// search that touches the giant component, a search from a tiny
// component must see pristine state — exactly its own two vertices
// claimed, every other parent back to NoParent, in caller ids — and the
// next giant search must reach its whole component again. A stale
// visited bit, parent entry or caller-id parent entry from an earlier
// search shows up directly here. Each input is one session running its
// query sequence three times:
//
//   - one input per tier, alternating giant and tiny searches; the
//     giant one takes the O(touched)-walk or full-clear path depending
//     on tier and threshold, the tiny one always the walk;
//   - two reordered sessions, a single-socket one (which writes the
//     visited bitmap) and a sequential one (no visited bitmap, a
//     single-producer queue, and a four-worker pool that serves only
//     the full clear), interleaving translated searches, the
//     parent-free SearchFunc entry point and cancelled searches, so the
//     caller-id parent clear must follow the last translation, not
//     whether the incoming query translates.
func TestSearcherResetCompleteness(t *testing.T) {
	g := chainPlusIsland(t) // chain 0..999 plus the edge 1000-1001
	const giant, tiny = graph.Vertex(0), graph.Vertex(1000)
	type step struct {
		root graph.Vertex
		call resetCall
	}
	type input struct {
		name  string
		opt   Options
		steps []step
	}
	var inputs []input
	for _, v := range sessionVariants {
		inputs = append(inputs, input{v.name, v.opt(g), []step{{root: giant}, {root: tiny}}})
	}
	reordered := []step{
		{giant, callSearch},
		{tiny, callNoParents},
		{tiny, callSearch},
		{giant, callCancelling},
		{tiny, callSearch},
		{giant, callNoParents},
		{tiny, callSearch},
		{giant, callSearch},
		{giant, callCancelling},
		{tiny, callNoParents},
	}
	inputs = append(inputs,
		input{"reordered", Options{Algorithm: AlgSingleSocket, Threads: 4, Ordering: graph.OrderDegree}, reordered},
		input{"reordered-sequential", Options{Algorithm: AlgSequential, Threads: 4, Ordering: graph.OrderDegree}, reordered},
	)

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			s, err := NewSearcher(g, in.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for round := 0; round < 3; round++ {
				for i, st := range in.steps {
					at := fmt.Sprintf("round %d step %d (%v from %d)", round, i, st.call, st.root)
					q := Query{}
					var res *Result
					switch st.call {
					case callSearch:
						res, err = s.SearchContext(context.Background(), st.root, q)
					case callNoParents:
						res, err = SearchFunc(context.Background(), s, st.root, q, false, nil)
					case callCancelling:
						res, err = s.SearchContext(&countdownCtx{after: 3}, st.root, q)
						if res != nil || !errors.Is(err, context.Canceled) {
							t.Fatalf("%s: res=%v err=%v, want nil, context.Canceled", at, res, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					expectResetResult(t, g, res, st.call == callSearch, at)
				}
			}
		})
	}
}

// expectResetResult checks one completed TestSearcherResetCompleteness
// query: the giant search reaches the whole chain and the tiny one
// exactly its edge; with parents, the tiny tree holds only its own two
// entries and the giant tree validates, both in caller ids.
func expectResetResult(t *testing.T, g *graph.Graph, res *Result, withParents bool, at string) {
	t.Helper()
	want := int64(1000)
	if res.Root == 1000 {
		want = 2
	}
	if res.Reached != want {
		t.Fatalf("%s: reached %d vertices, want %d", at, res.Reached, want)
	}
	if !withParents {
		if res.Parents != nil {
			t.Fatalf("%s: SearchFunc without parents returned %d parents, want nil", at, len(res.Parents))
		}
		return
	}
	if res.Root != 1000 {
		if err := ValidateTree(g, res.Root, res.Parents); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		return
	}
	for v, p := range res.Parents {
		switch v {
		case 1000, 1001:
			if p != 1000 {
				t.Fatalf("%s: vertex %d parent %d, want 1000", at, v, p)
			}
		default:
			if p != NoParent {
				t.Fatalf("%s: stale parent %d for vertex %d after reset", at, p, v)
			}
		}
	}
}

// TestConcurrentSearchers runs two independent sessions over one shared
// graph from different goroutines — sessions share the immutable CSR
// but nothing else, which the race detector checks.
func TestConcurrentSearchers(t *testing.T) {
	g := must(gen.Uniform(2000, 8, 13))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: 3})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for r := 0; r < 8; r++ {
				root := graph.Vertex((seed*911 + r*37) % g.NumVertices())
				res, err := s.BFS(root)
				if err != nil {
					t.Error(err)
					return
				}
				if err := ValidateTree(g, root, res.Parents); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// sessionKinds are the two kinds of session over the worker engine,
// reduced to what the Close tests drive: open one with the given
// workers, query one root, and close it.
var sessionKinds = []struct {
	name string
	open func(g *graph.Graph, threads int, pin bool) (session, error)
}{
	{"searcher", func(g *graph.Graph, threads int, pin bool) (session, error) {
		s, err := NewSearcher(g, Options{Algorithm: AlgSingleSocket, Threads: threads, PinThreads: pin})
		if err != nil {
			return nil, err
		}
		return searcherSession{s}, nil
	}},
	{"batch", func(g *graph.Graph, threads int, pin bool) (session, error) {
		b, err := NewBatchSearcher(g, BatchOptions{Width: 4, Threads: threads, PinThreads: pin})
		if err != nil {
			return nil, err
		}
		return batchSession{b}, nil
	}},
}

type session interface {
	query(root graph.Vertex) error
	Close() error
	Closed() bool
}

type searcherSession struct{ *Searcher }

func (s searcherSession) query(root graph.Vertex) error {
	_, err := s.BFS(root)
	return err
}

type batchSession struct{ *BatchSearcher }

func (b batchSession) query(root graph.Vertex) error {
	_, err := b.Search([]graph.Vertex{root})
	return err
}

// TestSearcherClose checks Close idempotence and the post-Close guard
// on both kinds of session.
func TestSearcherClose(t *testing.T) {
	g := must(gen.Chain(10))
	for _, k := range sessionKinds {
		s, err := k.open(g, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.query(0); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !s.Closed() {
			t.Errorf("%s: Closed() = false after Close", k.name)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: second Close: %v", k.name, err)
		}
		if err := s.query(0); err == nil {
			t.Errorf("%s: search on a closed session succeeded", k.name)
		}
	}
}

// TestSearcherRejectsBadInput mirrors the one-shot BFS input checks at
// the session layer.
func TestSearcherRejectsBadInput(t *testing.T) {
	if _, err := NewSearcher(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := must(gen.Chain(4))
	if _, err := NewSearcher(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	s, err := NewSearcher(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.BFS(100); err == nil {
		t.Error("out-of-range root accepted")
	}
}
