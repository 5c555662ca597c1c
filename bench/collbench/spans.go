package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Times are Unix nanoseconds so
// spans recorded by the load generator and by the server child share one
// clock. The spans of one request or one pass share Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// serverSpanBase offsets the IDs the server child assigns, so client and
// server spans of one run never collide.
const serverSpanBase = 1 << 40

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(base uint64) *tracer {
	t := &tracer{}
	t.next.Store(base)
	return t
}

// begin opens a span under parent; trace 0 starts a new trace rooted at the
// span itself.
func (t *tracer) begin(parent, trace uint64, layer, name string) span {
	id := t.next.Add(1)
	if trace == 0 {
		trace = id
	}
	return span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: time.Now().UnixNano()}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	s.End = time.Now().UnixNano()
	t.add(s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the kept spans and empties the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeSpans writes spans as JSON lines, creating the file's directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
