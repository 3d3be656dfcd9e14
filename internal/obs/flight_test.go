package obs

import (
	"testing"
	"time"
)

func sampleWithLevels(d time.Duration, levels int) QuerySample {
	s := QuerySample{
		Root:      7,
		Start:     time.Now(),
		Duration:  d,
		Levels:    levels,
		Reached:   100,
		Edges:     1000,
		Outcome:   OutcomeOK,
		Algorithm: "single-socket",
	}
	for l := 0; l < levels; l++ {
		lb := LevelBreakdown{Level: l, Duration: d / time.Duration(levels), Workers: 2}
		lb.Phases[PhaseLocalScan] = d / time.Duration(levels+1)
		lb.Edges = 100
		lb.MaxWorkerEdges = 75 // 1.5× the 2-worker mean
		lb.Steals = 3
		s.PerLevel = append(s.PerLevel, lb)
	}
	return s
}

func TestFlightRecorderCapturesAboveThreshold(t *testing.T) {
	// No histogram: the threshold stays where it is set.
	r := newFlightRecorder(8, nil)
	r.threshold = int64(10 * time.Millisecond)
	r.note(sampleWithLevels(time.Millisecond, 3))    // fast: scalars only
	r.note(sampleWithLevels(20*time.Millisecond, 4)) // slow: captured
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// Most recent first.
	if recs[0].Duration != 20*time.Millisecond || !recs[0].Captured || len(recs[0].PerLevel) != 4 {
		t.Errorf("slow record not captured: %+v", recs[0])
	}
	if recs[1].Captured || recs[1].PerLevel != nil {
		t.Errorf("fast record retained a breakdown: %+v", recs[1])
	}
	if recs[0].Seq != 2 || recs[1].Seq != 1 {
		t.Errorf("seq = %d,%d want 2,1", recs[0].Seq, recs[1].Seq)
	}
}

// TestFlightRecorderCaptureDoesNotAllocate fills every slot of a fresh
// default-size ring with a captured query as deep as the reserved room:
// the captures copy into memory reserved when the recorder was built,
// so none allocates.
func TestFlightRecorderCaptureDoesNotAllocate(t *testing.T) {
	const size = 256
	r := newFlightRecorder(size, nil) // threshold 0: every query is captured
	s := sampleWithLevels(time.Millisecond, flightCaptureLevels)
	// AllocsPerRun notes once to warm up, so size-1 runs reach the
	// remaining never-used slots exactly once each.
	if allocs := testing.AllocsPerRun(size-1, func() { r.note(s) }); allocs != 0 {
		t.Fatalf("capturing into a fresh slot: %v allocs per query, want 0", allocs)
	}
	recs := r.Records()
	if len(recs) != size {
		t.Fatalf("records = %d, want %d", len(recs), size)
	}
	for _, rec := range recs {
		if !rec.Captured || len(rec.PerLevel) != flightCaptureLevels {
			t.Fatalf("slot %d: captured=%v with %d levels, want a %d-level capture",
				rec.Seq, rec.Captured, len(rec.PerLevel), flightCaptureLevels)
		}
	}
	// A deeper capture grows its slot without disturbing its neighbour.
	r.note(sampleWithLevels(time.Second, flightCaptureLevels+3))
	recs = r.Records()
	if len(recs[0].PerLevel) != flightCaptureLevels+3 || recs[0].PerLevel[flightCaptureLevels].Level != flightCaptureLevels {
		t.Fatalf("deep capture kept %d levels, want %d", len(recs[0].PerLevel), flightCaptureLevels+3)
	}
	if next := recs[size-1]; len(next.PerLevel) != flightCaptureLevels || next.PerLevel[0].Level != 0 {
		t.Fatalf("the deep capture disturbed the next slot: %+v", next.PerLevel)
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := newFlightRecorder(4, nil)
	for i := 1; i <= 10; i++ {
		r.note(sampleWithLevels(time.Duration(i)*time.Millisecond, 2))
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want ring size 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(10 - i); rec.Seq != want {
			t.Errorf("records[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestFlightRecorderAdaptiveThreshold(t *testing.T) {
	h := NewHistogram(1)
	r := newFlightRecorder(32, h)
	if r.Threshold() != 0 {
		t.Fatalf("cold threshold = %v, want 0 (capture everything)", r.Threshold())
	}
	// Feed the histogram a tight distribution around 1ms and push enough
	// records through to trigger a refresh: the threshold must rise to
	// the p99 neighbourhood, so a typical query stops being captured.
	for i := 0; i < flightRefreshEvery; i++ {
		h.Record(0, time.Millisecond)
		r.note(sampleWithLevels(time.Millisecond, 2))
	}
	th := r.Threshold()
	if th <= 500*time.Microsecond {
		t.Fatalf("threshold after refresh = %v, want ~p99 of 1ms distribution", th)
	}
	r.note(sampleWithLevels(th/2, 2))
	recs := r.Records()
	if recs[0].Captured {
		t.Errorf("query at threshold/2 was captured (threshold %v)", th)
	}
	r.note(sampleWithLevels(th*2, 2))
	if recs = r.Records(); !recs[0].Captured {
		t.Errorf("query at 2x threshold was not captured (threshold %v)", th)
	}
}

func TestFlightRecorderSlowest(t *testing.T) {
	r := newFlightRecorder(16, nil)
	for _, ms := range []int{5, 1, 9, 3, 7} {
		r.note(sampleWithLevels(time.Duration(ms)*time.Millisecond, 1))
	}
	top := r.Slowest(3)
	if len(top) != 3 {
		t.Fatalf("slowest = %d entries, want 3", len(top))
	}
	want := []time.Duration{9 * time.Millisecond, 7 * time.Millisecond, 5 * time.Millisecond}
	for i, rec := range top {
		if rec.Duration != want[i] {
			t.Errorf("slowest[%d] = %v, want %v", i, rec.Duration, want[i])
		}
	}
}

func TestFlightRecorderRecordsAreCopies(t *testing.T) {
	r := newFlightRecorder(2, nil)
	r.note(sampleWithLevels(time.Second, 3))
	recs := r.Records()
	// Overwrite the slot by wrapping the ring; the copy must not change.
	r.note(sampleWithLevels(time.Millisecond, 1))
	r.note(sampleWithLevels(2*time.Millisecond, 1))
	r.note(sampleWithLevels(3*time.Millisecond, 1))
	if recs[0].Duration != time.Second || len(recs[0].PerLevel) != 3 {
		t.Errorf("dumped record mutated by later notes: %+v", recs[0])
	}
}

func TestOutcomeString(t *testing.T) {
	want := map[Outcome]string{
		OutcomeOK:        "ok",
		OutcomeCancelled: "cancelled",
		OutcomeShed:      "shed",
		OutcomePanic:     "panic",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}
