package obs

import "sync"

// Collector retains every emitted event — the unbounded sibling of
// FlightRecorder, used where the full stream must be replayed (e.g. rebuilding the Table 6
// aggregation from Transition events).
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty unbounded collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends the event.
func (s *Collector) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of every event in emission order.
func (s *Collector) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// multiSink fans every event out to several sinks in fixed order.
type multiSink struct {
	sinks []Sink
}

func (m multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// Flush drains every child that buffers, returning the first error.
func (m multiSink) Flush() error {
	var first error
	for _, s := range m.sinks {
		if err := FlushSink(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Multi returns a sink delivering every event to each non-nil sink in
// argument order. Nil sinks are dropped; with zero or one survivor the
// multiplexer collapses to nil or the sink itself.
func Multi(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return multiSink{sinks: kept}
	}
}

// countingSink bumps the registry's per-kind event counter for every event
// it sees; see CountingSink.
type countingSink struct{ reg *Registry }

func (s countingSink) Emit(e Event) { s.reg.IncEvent(e.EventKind()) }

// CountingSink returns a sink that counts events by kind into the
// registry's events_total counters — the /metrics view of event traffic.
// Fan it out next to the real sinks with Multi. Nil registries yield a nil
// sink (which Multi drops).
func CountingSink(r *Registry) Sink {
	if r == nil {
		return nil
	}
	return countingSink{reg: r}
}

// LogfSink adapts a printf-style callback to the event stream: every event
// is rendered through its Logline formatting. The events of the original
// printf trace log render byte-identically, so pre-existing log scrapers
// keep working. The sink adds no locking: fn may be called concurrently
// (an engine's background pass and its other callers can emit at once), so
// it must be safe for concurrent use, as log.Printf and testing.T.Logf are.
type LogfSink struct {
	fn func(format string, args ...any)
}

// NewLogfSink wraps fn; a nil fn yields a sink that drops everything.
func NewLogfSink(fn func(format string, args ...any)) *LogfSink {
	return &LogfSink{fn: fn}
}

// Emit formats the event through the callback.
func (s *LogfSink) Emit(e Event) {
	if s.fn == nil {
		return
	}
	format, args := e.Logline()
	s.fn(format, args...)
}
