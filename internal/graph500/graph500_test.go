package graph500

import (
	"strings"
	"testing"
	"time"

	"mcbfs/internal/core"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

func TestRunSmallScale(t *testing.T) {
	spec := DefaultSpec(10)
	spec.Roots = 8
	spec.Options = core.Options{Threads: 4}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != 1024 {
		t.Errorf("Vertices = %d", res.Vertices)
	}
	if res.Edges != 2*1024*16 {
		t.Errorf("Edges = %d, want undirected doubling of n*16", res.Edges)
	}
	if res.RootsRun != 8 {
		t.Errorf("RootsRun = %d", res.RootsRun)
	}
	if len(res.TEPS) != res.RootsRun {
		t.Errorf("TEPS count = %d", len(res.TEPS))
	}
	if res.HarmonicMeanTEPS <= 0 {
		t.Error("no harmonic mean TEPS")
	}
	if !res.Validated {
		t.Error("trees failed validation")
	}
	if res.MinTEPS > res.MedianTEPS || res.MedianTEPS > res.MaxTEPS {
		t.Errorf("TEPS quantiles out of order: %v %v %v", res.MinTEPS, res.MedianTEPS, res.MaxTEPS)
	}
	if res.ConstructionTime <= 0 {
		t.Error("no construction time")
	}
	if res.MeanReached <= 1 {
		t.Errorf("MeanReached = %v", res.MeanReached)
	}
}

func TestRunHarmonicMeanBelowMax(t *testing.T) {
	spec := DefaultSpec(9)
	spec.Roots = 6
	spec.SkipValidation = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.HarmonicMeanTEPS > res.MaxTEPS {
		t.Errorf("harmonic mean %v above max %v", res.HarmonicMeanTEPS, res.MaxTEPS)
	}
	if res.HarmonicMeanTEPS < res.MinTEPS {
		t.Errorf("harmonic mean %v below min %v", res.HarmonicMeanTEPS, res.MinTEPS)
	}
}

func TestRunDeterministicGraph(t *testing.T) {
	spec := DefaultSpec(8)
	spec.Roots = 2
	spec.SkipValidation = true
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges != b.Edges || a.Vertices != b.Vertices || a.RootsRun != b.RootsRun {
		t.Error("same spec produced different graphs")
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	bad := []Spec{
		{Scale: 0, EdgeFactor: 16, Roots: 4},
		{Scale: 31, EdgeFactor: 16, Roots: 4},
		{Scale: 10, EdgeFactor: 0, Roots: 4},
		{Scale: 10, EdgeFactor: 16, Roots: 0},
	}
	for _, s := range bad {
		if _, err := Run(s); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestRunAllTiers(t *testing.T) {
	for _, alg := range []core.Algorithm{
		core.AlgSequential, core.AlgSingleSocket, core.AlgMultiSocket, core.AlgDirectionOptimizing,
	} {
		spec := DefaultSpec(9)
		spec.Roots = 3
		spec.Options = core.Options{Algorithm: alg, Threads: 4}
		res, err := Run(spec)
		if err != nil {
			t.Errorf("%v: %v", alg, err)
			continue
		}
		if !res.Validated {
			t.Errorf("%v: validation failed", alg)
		}
	}
}

// TestRunDeadlineFeedsMetrics pins the -deadline observability path: a
// deadline so tight every root times out must surface the abandonment
// count through the attached obs.Metrics (the live view), in agreement
// with Result.RootsTimedOut (the summary).
func TestRunDeadlineFeedsMetrics(t *testing.T) {
	var m obs.Metrics
	spec := DefaultSpec(12)
	spec.Roots = 3
	spec.SkipValidation = true
	spec.Options = core.Options{Threads: 2}
	spec.SearchTimeout = time.Nanosecond // expires before the first level barrier
	spec.Metrics = &m
	res, err := Run(spec)
	if err == nil {
		t.Fatal("expected the all-roots-timed-out error")
	}
	if res == nil {
		t.Fatal("timed-out run must still return its partial result")
	}
	if res.RootsTimedOut != spec.Roots {
		t.Fatalf("RootsTimedOut = %d, want %d", res.RootsTimedOut, spec.Roots)
	}
	if got := m.TimedOut.Load(); got != int64(spec.Roots) {
		t.Errorf("Metrics.TimedOut = %d, want %d (must match RootsTimedOut live)", got, spec.Roots)
	}
	if snap := m.Snapshot(); snap["timedOut"] != int64(spec.Roots) {
		t.Errorf("Snapshot timedOut = %d, want %d", snap["timedOut"], spec.Roots)
	}
}

func TestResultString(t *testing.T) {
	spec := DefaultSpec(8)
	spec.Roots = 2
	spec.SkipValidation = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"graph500 scale=8", "harmonic-mean TEPS", "validated"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestRunBatch(t *testing.T) {
	spec := DefaultSpec(10)
	spec.Roots = 70 // forces two chunks: 64 + 6
	spec.Options = core.Options{Threads: 2}
	spec.Batch = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchRootsRun != res.RootsRun {
		t.Errorf("BatchRootsRun = %d, want %d", res.BatchRootsRun, res.RootsRun)
	}
	if res.BatchDuration <= 0 || res.BatchTEPS <= 0 || res.BatchQueriesPerSec <= 0 {
		t.Errorf("batch stats not populated: dur=%v teps=%v qps=%v",
			res.BatchDuration, res.BatchTEPS, res.BatchQueriesPerSec)
	}
	// Lanes share scans, so attribution can only meet or beat 1x.
	if res.BatchAmortization < 1 {
		t.Errorf("BatchAmortization = %v, want >= 1", res.BatchAmortization)
	}
	if !res.Validated {
		t.Error("batched trees failed validation")
	}
	if s := res.String(); !strings.Contains(s, "batched") {
		t.Errorf("String() omits batch stats: %s", s)
	}
}

// TestRunReordersOnce pins the one ordering knob: Options.Ordering
// relabels the generated graph once, before either phase, and the run
// echoes that ordering and its cost, counting the cost once into the
// attached Metrics. Both phases validate their trees in caller ids.
func TestRunReordersOnce(t *testing.T) {
	var m obs.Metrics
	spec := DefaultSpec(10)
	spec.Roots = 4
	spec.Options = core.Options{Threads: 2, Ordering: graph.OrderDegree}
	spec.Batch = true
	spec.Metrics = &m
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordering != graph.OrderDegree || res.ReorderTime <= 0 {
		t.Errorf("result reports ordering %s in %v, want degree with its reorder time", res.Ordering, res.ReorderTime)
	}
	if got := m.ReorderNs.Load(); got != int64(res.ReorderTime) {
		t.Errorf("Metrics.ReorderNs = %d, want the one reorder's %d", got, int64(res.ReorderTime))
	}
	if !res.Validated || res.BatchRootsRun != res.RootsRun {
		t.Errorf("validated %v, batched roots %d of %d", res.Validated, res.BatchRootsRun, res.RootsRun)
	}
	if s := res.String(); !strings.Contains(s, "reorder[degree]") {
		t.Errorf("String() omits the reorder: %s", s)
	}
}
