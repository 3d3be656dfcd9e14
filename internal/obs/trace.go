package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Trace is the structured record of one BFS run: one timeline per
// worker, one folded breakdown per level, and one sample per
// inter-socket channel per level.
type Trace struct {
	// Workers and Sockets are the run's shape; Algorithm the tier name.
	Workers   int
	Sockets   int
	Algorithm string
	// Timelines[w] is worker w's phase spans in chronological order.
	Timelines [][]Span
	// Levels holds one breakdown per BFS level.
	Levels []LevelBreakdown
	// Channels holds per-level samples of the inter-socket channels
	// (multi-socket tier only).
	Channels []ChannelSample
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace writes the trace in Chrome trace-event JSON: one
// track ("thread") per worker carrying its phase spans, one track for
// the level spans, and one track per inter-socket channel carrying its
// per-level flush statistics. Open the file in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	const pid = 1
	levelTid := t.Workers
	chanTid := func(socket int) int { return t.Workers + 1 + socket }

	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": fmt.Sprintf("mcbfs %s (%d workers)", t.Algorithm, t.Workers)},
	}}
	meta := func(tid int, name string) {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for w := 0; w < t.Workers; w++ {
		meta(w, fmt.Sprintf("worker %d", w))
	}
	meta(levelTid, "levels")
	for s := 0; s < t.Sockets; s++ {
		if t.Sockets > 1 {
			meta(chanTid(s), fmt.Sprintf("channel socket %d", s))
		}
	}

	for _, b := range t.Levels {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("level %d", b.Level), Ph: "X", Pid: pid, Tid: levelTid,
			Ts: usec(b.Start), Dur: usec(b.Duration),
			Args: map[string]any{
				"frontier": b.Frontier, "edges": b.Edges,
				"bitmapReads": b.BitmapReads, "atomicOps": b.AtomicOps,
				"remoteSends": b.RemoteSends, "maxWorkerEdges": b.MaxWorkerEdges,
				"steals": b.Steals, "imbalance": b.Imbalance(),
			},
		})
	}
	for wk, tl := range t.Timelines {
		for _, s := range tl {
			events = append(events, chromeEvent{
				Name: s.Phase.String(), Ph: "X", Pid: pid, Tid: wk,
				Ts: usec(s.Start), Dur: usec(s.Dur),
				Args: map[string]any{"level": s.Level},
			})
		}
	}
	for _, cs := range t.Channels {
		b := t.levelByIndex(cs.Level)
		if b == nil || cs.Tuples == 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%d tuples / %d batches", cs.Tuples, cs.Batches),
			Ph:   "X", Pid: pid, Tid: chanTid(cs.Socket),
			Ts: usec(b.Start), Dur: usec(b.Duration),
			Args: map[string]any{
				"level": cs.Level, "tuples": cs.Tuples, "batches": cs.Batches,
				"maxOccupancy": cs.MaxLen, "maxBatch": cs.MaxBatch,
			},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

func (t *Trace) levelByIndex(level int) *LevelBreakdown {
	for i := range t.Levels {
		if t.Levels[i].Level == level {
			return &t.Levels[i]
		}
	}
	return nil
}

// WriteBreakdown writes the per-level phase table in the style of the
// paper's per-level figures: each phase column is the share of total
// worker time (Workers × level duration) spent in that phase, and imb
// is the edge-load imbalance factor (straggler's edge share over the
// mean share; 1.00 is perfect balance). The total row's imb divides the
// per-level stragglers' summed edges — the traversal's critical path —
// by the mean, which is what the level barriers actually serialize on.
func (t *Trace) WriteBreakdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-6s %-12s %-10s %-12s %5s %6s %6s %7s %8s %7s %8s  %s\n",
		"level", "duration", "frontier", "edges", "imb", "steals",
		"scan%", "drain%", "barrier%", "build%", "bottomup%", "remote"); err != nil {
		return err
	}
	var tot LevelBreakdown
	tot.Workers = t.Workers
	for _, b := range t.Levels {
		if err := t.writeBreakdownRow(w, fmt.Sprintf("%d", b.Level), b); err != nil {
			return err
		}
		tot.add(&b)
	}
	return t.writeBreakdownRow(w, "total", tot)
}

func (t *Trace) writeBreakdownRow(w io.Writer, label string, b LevelBreakdown) error {
	workerTime := float64(t.Workers) * float64(b.Duration)
	pct := func(p Phase) float64 {
		if workerTime <= 0 {
			return 0
		}
		return 100 * float64(b.Phases[p]) / workerTime
	}
	_, err := fmt.Fprintf(w, "%-6s %-12s %-10d %-12d %5.2f %6d %6.1f %7.1f %8.1f %7.1f %8.1f  %d\n",
		label, b.Duration.Round(time.Microsecond), b.Frontier, b.Edges,
		b.Imbalance(), b.Steals,
		pct(PhaseLocalScan), pct(PhaseQueueDrain), pct(PhaseBarrierWait),
		pct(PhaseFrontierBuild), pct(PhaseBottomUpScan), b.RemoteTuples)
	return err
}
