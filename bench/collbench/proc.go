package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// analysisSink subscribes to an engine's events through obs.Sink: it counts
// them and keeps each analysis pass's duration from RoundCompleted. With a
// tracer it also rebuilds each pass as a core.analysis span under the
// current parent, ending at the event's receipt.
type analysisSink struct {
	mu     sync.Mutex
	tr     *tracer
	parent span
	events int64
	passUs []float64
}

func (s *analysisSink) Emit(e obs.Event) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	rc, ok := e.(obs.RoundCompleted)
	if !ok {
		return
	}
	s.passUs = append(s.passUs, float64(rc.DurationNs)/1e3)
	if s.tr != nil && s.parent.ID != 0 {
		s.tr.add(span{
			ID: s.tr.next.Add(1), Parent: s.parent.ID, Trace: s.parent.Trace,
			Layer: "core", Name: "core.analysis", Start: now - rc.DurationNs, End: now,
		})
	}
}

// setParent makes p the parent of the analysis spans that follow.
func (s *analysisSink) setParent(p span) {
	s.mu.Lock()
	s.parent = p
	s.mu.Unlock()
}

// take returns the events counted and pass durations kept since the last
// take.
func (s *analysisSink) take() (events int64, passUs []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	events, passUs = s.events, s.passUs
	s.events, s.passUs = 0, nil
	return events, passUs
}

// procSample is one reading of this process's runtime and CPU counters.
type procSample struct {
	At         int64    `json:"at_ns"`
	NumGC      uint32   `json:"num_gc"`
	PauseNs    []uint64 `json:"pause_ns"` // runtime.MemStats.PauseNs ring
	TotalAlloc uint64   `json:"total_alloc"`
	GCCPU      float64  `json:"gc_cpu_s"`
	TotalCPU   float64  `json:"total_cpu_s"`
	RusageNs   int64    `json:"rusage_ns"` // user+system CPU
}

var cpuClasses = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: cpuClasses[0]}, {Name: cpuClasses[1]}}
	metrics.Read(samples)
	p := procSample{
		At:         time.Now().UnixNano(),
		NumGC:      ms.NumGC,
		PauseNs:    append([]uint64(nil), ms.PauseNs[:]...),
		TotalAlloc: ms.TotalAlloc,
		RusageNs:   rusageNs(),
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		p.GCCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		p.TotalCPU = samples[1].Value.Float64()
	}
	return p
}

func rusageNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procDelta accumulates what happened between pairs of samples.
type procDelta struct {
	gcs      int
	pausesMs []float64
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	cpuNs    int64
	wallNs   int64
}

// add accounts for the interval from a to b. Pauses come from the
// MemStats ring, so an interval with more than 256 collections keeps the
// latest 256.
func (d *procDelta) add(a, b procSample) {
	n := int(b.NumGC - a.NumGC)
	d.gcs += n
	for i := 0; i < n && i < len(b.PauseNs); i++ {
		gc := b.NumGC - uint32(i) // 1-based number of a collection in the interval
		d.pausesMs = append(d.pausesMs, float64(b.PauseNs[(gc+255)%256])/1e6)
	}
	d.alloc += b.TotalAlloc - a.TotalAlloc
	d.gcCPU += b.GCCPU - a.GCCPU
	d.totalCPU += b.TotalCPU - a.TotalCPU
	d.cpuNs += b.RusageNs - a.RusageNs
	d.wallNs += b.At - a.At
}

// merge adds the intervals e accounted for.
func (d *procDelta) merge(e procDelta) {
	d.gcs += e.gcs
	d.pausesMs = append(d.pausesMs, e.pausesMs...)
	d.alloc += e.alloc
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
	d.cpuNs += e.cpuNs
	d.wallNs += e.wallNs
}

// runtimeRows reports the runtime and CPU layer of the program's process,
// with counts per unit of n (measured passes or seconds).
func (d *procDelta) runtimeRows(n int) []row {
	pause := medianRow("runtime.gc_pause_ms", "ms", d.pausesMs)
	pause.Note = "median stop-the-world pause"
	return []row{
		scalarRow("runtime.gc_cycles", "count", ratio(float64(d.gcs), float64(n)), n),
		pause,
		scalarRow("runtime.gc_cpu_fraction", "fraction", ratio(d.gcCPU, d.totalCPU), n),
		scalarRow("proc.program_cpu_cores", "cores", ratio(float64(d.cpuNs), float64(d.wallNs)), n),
	}
}

// heapSampler reads the live heap (what the last collection marked) every
// 10 ms.
type heapSampler struct {
	mu      sync.Mutex
	samples []float64
	done    chan struct{}
	stopped chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(h.stopped)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				metrics.Read(s)
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapSampler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.samples
	h.samples = nil
	return out
}

func (h *heapSampler) stop() {
	close(h.done)
	<-h.stopped
}
