package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one recorded call: a call into a program layer, a
// program-reported duration attached beneath it, or the benchmark's own
// reference, validation and probe work. Times are nanoseconds since the
// tracer's origin.
type span struct {
	name       string
	id, parent int64 // parent 0: a root span
	req        int64 // request id shared by the spans of one operation
	start, end int64
}

// tracer holds spans in memory until the run ends. Each goroutine
// records into its own spanBuf, so recording takes no lock; a nil
// *spanBuf records nothing, which is how untraced runs call it.
type tracer struct {
	origin time.Time
	bufs   []*spanBuf
}

type spanBuf struct {
	origin time.Time
	lane   int64
	nextID int64
	spans  []span
	// dropped counts spans not kept once the preallocated buffer filled,
	// so a long traced run never allocates on the hot path.
	dropped int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// buf returns a new per-goroutine buffer with room for capacity spans.
// Call it before the goroutines start.
func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{origin: t.origin, lane: int64(len(t.bufs)) + 1, spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// add records a finished span and returns its id (0 when not kept).
func (b *spanBuf) add(name string, parent, req int64, start, end time.Time) int64 {
	if b == nil {
		return 0
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	b.nextID++
	id := b.lane<<40 | b.nextID
	b.spans = append(b.spans, span{
		name: name, id: id, parent: parent, req: req,
		start: int64(start.Sub(b.origin)), end: int64(end.Sub(b.origin)),
	})
	return id
}

// child attaches a program-reported duration beneath parent, ending
// where the parent ends: the duration is exact, its placement inside
// the parent's interval is not known from outside.
func (b *spanBuf) child(name string, parent, req int64, parentEnd time.Time, d time.Duration) {
	if b == nil || parent == 0 {
		return
	}
	b.add(name, parent, req, parentEnd.Add(-d), parentEnd)
}

// selfTimes returns each span's duration minus the part covered by its
// children, keyed by span id, plus the spans themselves.
func (t *tracer) selfTimes() (map[int64]int64, []span) {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	self := make(map[int64]int64, len(all))
	for _, s := range all {
		self[s.id] += s.end - s.start
	}
	for _, s := range all {
		if s.parent != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self, all
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerShares returns each layer's share of the self time of the spans
// that start at or after from.
func (t *tracer) layerShares(from time.Time) map[string]float64 {
	self, all := t.selfTimes()
	cut := int64(from.Sub(t.origin))
	sum := map[string]float64{}
	total := 0.0
	for _, s := range all {
		if s.start >= cut {
			sum[layerOf(s.name)] += float64(self[s.id])
			total += float64(self[s.id])
		}
	}
	for l := range sum {
		sum[l] /= total
	}
	return sum
}

// spanSelf returns the self times, in order, of the spans named name.
func (t *tracer) spanSelf(name string) []float64 {
	self, all := t.selfTimes()
	var out []float64
	for _, s := range all {
		if s.name == name {
			out = append(out, float64(self[s.id]))
		}
	}
	return out
}

func (t *tracer) dropped() int64 {
	var d int64
	for _, b := range t.bufs {
		d += b.dropped
	}
	return d
}

// writeChrome writes every span as a Chrome trace-event file (load it
// in chrome://tracing or Perfetto), one track per recording goroutine.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	_, _ = w.WriteString("{\"traceEvents\":[\n")
	enc := json.NewEncoder(w)
	first := true
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if !first {
				_, _ = w.WriteString(",")
			}
			first = false
			ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: b.lane, Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req}}
			if err := enc.Encode(ev); err != nil {
				f.Close()
				return err
			}
		}
	}
	_, _ = fmt.Fprintf(w, "],\"droppedSpans\":%d}\n", t.dropped())
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
