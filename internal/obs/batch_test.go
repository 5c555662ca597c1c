package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// numberedEvents builds a batch of distinguishable events whose order can be
// asserted after any round trip.
func numberedEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = ContextRegistered{Engine: "batch", Context: fmt.Sprintf("ctx-%03d", i)}
	}
	return out
}

func eventOrder(t *testing.T, events []Event) []string {
	t.Helper()
	out := make([]string, len(events))
	for i, e := range events {
		cr, ok := e.(ContextRegistered)
		if !ok {
			t.Fatalf("event %d: %T, want ContextRegistered", i, e)
		}
		out[i] = cr.Context
	}
	return out
}

// TestBatchPreservesOrder pins the batching contract end to end: events
// buffered in a Batch and flushed through EmitAll reach a JSONL sink as
// consecutive lines in emission order, and decode back in that exact order.
func TestBatchPreservesOrder(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	b := NewBatch(sink)
	want := numberedEvents(50)
	for _, e := range want[:20] {
		b.Emit(e)
	}
	b.EmitBatch(want[20:])
	if b.Len() != len(want) {
		t.Fatalf("Batch.Len = %d, want %d", b.Len(), len(want))
	}
	if buf.Len() != 0 {
		t.Fatal("batch leaked events to the sink before Flush")
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("Batch.Len after Flush = %d, want 0", b.Len())
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("sink Flush: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	wantOrder, gotOrder := eventOrder(t, want), eventOrder(t, got)
	if strings.Join(gotOrder, ",") != strings.Join(wantOrder, ",") {
		t.Errorf("JSONL order after batched emission:\n got %v\nwant %v", gotOrder, wantOrder)
	}
}

// TestEmitAllFallback delivers through a Sink that lacks EmitBatch and must
// fall back to per-event Emit, in order.
func TestEmitAllFallback(t *testing.T) {
	var seen []Event
	plain := sinkFunc(func(e Event) { seen = append(seen, e) })
	want := numberedEvents(10)
	EmitAll(plain, want)
	if strings.Join(eventOrder(t, seen), ",") != strings.Join(eventOrder(t, want), ",") {
		t.Errorf("fallback order = %v, want %v", eventOrder(t, seen), eventOrder(t, want))
	}
	// Nil sink and empty batch are no-ops.
	EmitAll(nil, want)
	EmitAll(plain, nil)
	if len(seen) != len(want) {
		t.Errorf("no-op EmitAll delivered events: %d, want %d", len(seen), len(want))
	}
}

// sinkFunc adapts a function to Sink without implementing BatchSink.
type sinkFunc func(Event)

func (f sinkFunc) Emit(e Event) { f(e) }

// snapshotEvents drops the flight recorder's timestamps.
func snapshotEvents(r *FlightRecorder) []Event {
	var out []Event
	for _, te := range r.Snapshot() {
		out = append(out, te.Event)
	}
	return out
}

// TestRingAndCollectorBatch pins batched delivery on the in-memory sinks:
// order preserved, eviction identical to per-event emission.
func TestRingAndCollectorBatch(t *testing.T) {
	events := numberedEvents(10)

	perEvent := NewFlightRecorder(4)
	batched := NewFlightRecorder(4)
	for _, e := range events {
		perEvent.Emit(e)
	}
	batched.EmitBatch(events)
	if got, want := eventOrder(t, snapshotEvents(batched)), eventOrder(t, snapshotEvents(perEvent)); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ring batched = %v, per-event = %v", got, want)
	}
	if batched.Total() != perEvent.Total() {
		t.Errorf("ring totals differ: batched %d, per-event %d", batched.Total(), perEvent.Total())
	}

	col := NewCollector()
	col.EmitBatch(events[:5])
	col.Emit(events[5])
	col.EmitBatch(events[6:])
	if got := eventOrder(t, col.Events()); strings.Join(got, ",") != strings.Join(eventOrder(t, events), ",") {
		t.Errorf("collector order = %v, want %v", got, eventOrder(t, events))
	}
}

// TestFlightRecorderBatch pins order and eviction for batched delivery into
// the flight recorder.
func TestFlightRecorderBatch(t *testing.T) {
	events := numberedEvents(10)
	r := NewFlightRecorder(4)
	r.EmitBatch(events)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(snap))
	}
	for i, te := range snap {
		want := fmt.Sprintf("ctx-%03d", len(events)-4+i)
		if got := te.Event.(ContextRegistered).Context; got != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, got, want)
		}
		if te.When.IsZero() {
			t.Errorf("snapshot[%d] not timestamped", i)
		}
	}
	if r.Total() != int64(len(events)) {
		t.Errorf("Total = %d, want %d", r.Total(), len(events))
	}
}

// TestMultiSinkBatchAndFlush pins that a multiplexer forwards whole batches
// to every child in order and that FlushSink drains buffering children.
func TestMultiSinkBatchAndFlush(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	col := NewCollector()
	m := Multi(jsonl, col)
	events := numberedEvents(8)
	EmitAll(m, events)
	if got := eventOrder(t, col.Events()); strings.Join(got, ",") != strings.Join(eventOrder(t, events), ",") {
		t.Errorf("collector via multi = %v, want %v", got, eventOrder(t, events))
	}
	if buf.Len() != 0 {
		t.Fatal("JSONL buffer drained before flush — expected buffering")
	}
	if err := FlushSink(m); err != nil {
		t.Fatalf("FlushSink(multi): %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if gotOrder := eventOrder(t, got); strings.Join(gotOrder, ",") != strings.Join(eventOrder(t, events), ",") {
		t.Errorf("JSONL via multi = %v, want %v", gotOrder, eventOrder(t, events))
	}
	// FlushSink on a non-buffering sink is a no-op, not an error.
	if err := FlushSink(col); err != nil {
		t.Errorf("FlushSink(collector) = %v, want nil", err)
	}
}

// TestCountingSinkBatch pins that batched delivery feeds the per-kind event
// counters exactly like per-event delivery.
func TestCountingSinkBatch(t *testing.T) {
	reg := NewRegistry()
	s := CountingSink(reg)
	EmitAll(s, numberedEvents(7))
	if got := reg.EventCounts()[KindContextRegistered]; got != 7 {
		t.Errorf("events_total[%s] = %d, want 7", KindContextRegistered, got)
	}
}
