package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes reads the aggregate CPU line of /proc/stat: the steal ticks
// and the total ticks. ok is false where /proc/stat is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		if i >= 8 { // guest time is already counted in user time
			break
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// hostWindow measures what the host and the Go runtime did over a
// phase: the share of CPU time stolen by the hypervisor, heap
// allocations and GC cycles.
type hostWindow struct {
	steal0, total0 uint64
	stealOK        bool
	mallocs0       uint64
	gc0            uint32
}

func startWindow() hostWindow {
	var w hostWindow
	w.steal0, w.total0, w.stealOK = cpuTimes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs0, w.gc0 = ms.Mallocs, ms.NumGC
	return w
}

// windowStats is what a hostWindow saw when it ended.
type windowStats struct {
	stealFrac float64 // -1 where /proc/stat is unavailable
	mallocs   uint64
	gcCycles  uint32
}

func (w hostWindow) end() windowStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := windowStats{stealFrac: -1, mallocs: ms.Mallocs - w.mallocs0, gcCycles: ms.NumGC - w.gc0}
	if s1, t1, ok := cpuTimes(); ok && w.stealOK && t1 > w.total0 {
		st.stealFrac = float64(s1-w.steal0) / float64(t1-w.total0)
	}
	return st
}

// heapInUse returns the live heap after a full collection that also
// returns freed memory to the OS, so that every set-up starts from the
// same heap and pays its own page faults, as in a fresh process.
func heapInUse() uint64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// probe accumulates the frozen probe: the benchmark's own reference BFS
// timed in slices spread through the timed phase.
type probe struct {
	edges int64
	dur   time.Duration
}

func (p *probe) add(r *ref) { p.edges += r.edges; p.dur += r.dur }

// rate returns the probe's edges per second.
func (p probe) rate() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(p.edges) / p.dur.Seconds()
}

// pairProbe is the probe on two cores: two reference searches from
// different roots run at once, one on a helper goroutine, and the rate
// is their edges over the pair's wall time. Two-thread configurations
// track it more closely than the one-core probe.
type pairProbe struct {
	probe
	a, b *ref
	req  chan uint32
	done chan error
}

func newPairProbe(g *csr) *pairProbe {
	p := &pairProbe{a: newRef(g), b: newRef(g), req: make(chan uint32), done: make(chan error)}
	go func() {
		for root := range p.req {
			p.done <- p.b.run(root, 0)
		}
		close(p.done)
	}()
	return p
}

func (p *pairProbe) run(ra, rb uint32) error {
	t0 := time.Now()
	p.req <- rb
	errA := p.a.run(ra, 0)
	errB := <-p.done
	p.dur += time.Since(t0)
	p.edges += p.a.edges + p.b.edges
	if errA != nil {
		return errA
	}
	return errB
}

// close stops the helper goroutine and waits for it to exit.
func (p *pairProbe) close() {
	close(p.req)
	<-p.done
}

// sampleProbes runs count two-core probe searches into pp and, unless
// solo is nil, count one-core ones into solo, from roots drawn from rng.
func sampleProbes(g *csr, rf *ref, pp *pairProbe, rng *rng, count int, solo *probe) error {
	for i := 0; i < count; i++ {
		if solo != nil {
			if err := rf.run(nextRoot(g, rng), 0); err != nil {
				return err
			}
			solo.add(rf)
		}
		if err := pp.run(nextRoot(g, rng), nextRoot(g, rng)); err != nil {
			return err
		}
	}
	return nil
}
