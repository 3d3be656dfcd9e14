package core

import (
	"fmt"
	"testing"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/topology"
)

// schedTiers are the parallel tiers affected by edge-budgeted
// scheduling, each with the machine shape it needs. Together they cover
// every claim mode of the shared top-down scan: CAS-parent, the
// double-checked bitmap, the always-atomic bitmap (noDC) and
// owner-or-send with either bitmap claim.
func schedTiers() []struct {
	name    string
	alg     Algorithm
	machine topology.Machine
	noDC    bool
} {
	return []struct {
		name    string
		alg     Algorithm
		machine topology.Machine
		noDC    bool
	}{
		{"simple", AlgParallelSimple, topology.Machine{}, false},
		{"singlesocket", AlgSingleSocket, topology.Machine{}, false},
		{"singlesocket-nodc", AlgSingleSocket, topology.Machine{}, true},
		{"multisocket", AlgMultiSocket, topology.Generic(2, 4, 1), false},
		{"multisocket-nodc", AlgMultiSocket, topology.Generic(2, 4, 1), true},
		{"hybrid", AlgDirectionOptimizing, topology.Machine{}, false},
		{"hybrid-nodc", AlgDirectionOptimizing, topology.Machine{}, true},
	}
}

// schedBudgets span the interesting regimes: a tiny budget that turns
// every chunk into a handful of edges and every moderate-degree vertex
// into a hub, the derived default, and a budget so large it never
// splits, so that chunks are cut by their vertex count alone.
func schedBudgets(short bool) []struct {
	name   string
	budget int64
} {
	all := []struct {
		name   string
		budget int64
	}{
		{"tiny", 4},
		{"auto", 0},
		{"huge", 1 << 40},
	}
	if short {
		return all[:2] // tiny stresses hubs hardest; auto is the shipping path
	}
	return all
}

// TestSchedulingEquivalence is the load-balance property test: for
// every tier × worker count × budget regime, the BFS tree must be one
// ValidateTree accepts and the per-vertex depths must be byte-equal to
// the sequential reference — chunk shape and hub splitting may change
// which parent wins a race, but never which level a vertex lands in.
func TestSchedulingEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4, 7, 13, 16}
	if testing.Short() {
		workerCounts = []int{1, 3, 16}
	}
	for _, f := range hybridFamilies(t) {
		ref := run(t, f.g, f.root, Options{Algorithm: AlgSequential})
		refDepths := TreeDepths(ref.Parents, f.root)
		for _, tier := range schedTiers() {
			for _, b := range schedBudgets(testing.Short()) {
				for _, workers := range workerCounts {
					name := fmt.Sprintf("%s/%s/%s/w%d", f.name, tier.name, b.name, workers)
					res := runSched(t, f.g, f.root, Options{
						Algorithm:          tier.alg,
						Threads:            workers,
						Machine:            tier.machine,
						DisableDoubleCheck: tier.noDC,
					}, schedule{budget: b.budget})
					validate(t, f.g, res)
					if res.Reached != ref.Reached {
						t.Fatalf("%s: Reached = %d, want %d", name, res.Reached, ref.Reached)
					}
					if res.Levels != ref.Levels {
						t.Fatalf("%s: Levels = %d, want %d", name, res.Levels, ref.Levels)
					}
					depths := TreeDepths(res.Parents, f.root)
					for v := range depths {
						if depths[v] != refDepths[v] {
							t.Fatalf("%s: vertex %d at depth %d, want %d",
								name, v, depths[v], refDepths[v])
						}
					}
				}
			}
		}
	}
}

// TestSchedulingWarmSession drives one Searcher through several roots
// per tier with a tiny budget, so hub-board and sub-cursor state must
// reset correctly between searches for later answers to stay right.
func TestSchedulingWarmSession(t *testing.T) {
	g := must(gen.RMAT(11, 1<<14, gen.GTgraphDefaults, 33))
	roots := []graph.Vertex{0, 7, 123, 0, 999}
	refs := make([]*Result, len(roots))
	for i, r := range roots {
		refs[i] = run(t, g, r, Options{Algorithm: AlgSequential})
	}
	for _, tier := range schedTiers() {
		s, err := newSearcher(g, Options{
			Algorithm:          tier.alg,
			Threads:            4,
			Machine:            tier.machine,
			DisableDoubleCheck: tier.noDC,
		}, schedule{budget: 4})
		if err != nil {
			t.Fatalf("%s: NewSearcher: %v", tier.name, err)
		}
		for i, r := range roots {
			res, err := s.Search(r, Query{})
			if err != nil {
				t.Fatalf("%s: search %d: %v", tier.name, i, err)
			}
			validate(t, g, res)
			if res.Reached != refs[i].Reached {
				t.Errorf("%s: root %d search %d: Reached = %d, want %d",
					tier.name, r, i, res.Reached, refs[i].Reached)
			}
			if res.Levels != refs[i].Levels {
				t.Errorf("%s: root %d search %d: Levels = %d, want %d",
					tier.name, r, i, res.Levels, refs[i].Levels)
			}
		}
		s.Close()
	}
}

// TestMultiSocketStealingObserved pins down that the steal path is
// actually exercised (not just compiled): on a hub-heavy graph with an
// intentionally lopsided partition pressure, at least one steal should
// show up in the instrumented counters across a few searches.
func TestMultiSocketStealingObserved(t *testing.T) {
	g := must(gen.RMAT(12, 1<<15, gen.GTgraphDefaults, 44))
	s, err := newSearcher(g, Options{
		Algorithm:  AlgMultiSocket,
		Threads:    8,
		Machine:    topology.Generic(2, 4, 1),
		Instrument: true,
	}, schedule{budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var steals int64
	for _, root := range []graph.Vertex{0, 1, 2, 3, 17} {
		res, err := s.Search(root, Query{})
		if err != nil {
			t.Fatal(err)
		}
		validate(t, g, res)
		for _, lv := range res.PerLevel {
			steals += lv.Steals
		}
	}
	// Stealing is opportunistic — a worker only steals after draining
	// its own socket — so any single level may see none; across five
	// skewed searches with a near-minimal budget, zero total steals
	// means the path is dead.
	if steals == 0 {
		t.Error("no steals observed across 5 skewed searches with budget=8")
	}
}

// TestSchedulingImbalanceReported checks the observability contract:
// instrumented parallel searches must report MaxWorkerEdges consistent
// with the level totals (straggler share of at most the whole level,
// at least the mean).
func TestSchedulingImbalanceReported(t *testing.T) {
	g := must(gen.Uniform(4000, 8, 55))
	for _, tier := range schedTiers() {
		res := run(t, g, 0, Options{
			Algorithm:          tier.alg,
			Threads:            4,
			Machine:            tier.machine,
			Instrument:         true,
			DisableDoubleCheck: tier.noDC,
		})
		validate(t, g, res)
		sawWork := false
		for i, lv := range res.PerLevel {
			if lv.Edges == 0 {
				continue
			}
			sawWork = true
			if lv.MaxWorkerEdges <= 0 || lv.MaxWorkerEdges > lv.Edges {
				t.Errorf("%s level %d: MaxWorkerEdges = %d outside (0, %d]",
					tier.name, i, lv.MaxWorkerEdges, lv.Edges)
			}
		}
		if !sawWork {
			t.Errorf("%s: no level reported edges", tier.name)
		}
	}
}
