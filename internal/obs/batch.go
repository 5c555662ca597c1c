package obs

// Flusher is the optional sink extension for explicit draining: sinks that
// buffer (JSONLSink) or fan out to buffering children (Multi) expose it so
// an engine Close can force the tail of the event stream out.
type Flusher interface {
	Flush() error
}

// FlushSink flushes the sink if it (or, for a multiplexer, any of its
// children) supports Flusher; unknown sinks are a no-op.
func FlushSink(s Sink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}
