package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// numberedEvents builds distinguishable events whose order can be asserted
// after any round trip.
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

// TestMultiSinkBatchAndFlush pins that a multiplexer forwards every event
// to each child in order, and that FlushSink drains a buffering child the
// multiplexer holds.
func TestMultiSinkBatchAndFlush(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	col := NewCollector()
	m := Multi(jsonl, col)
	events := numberedEvents(8)
	for _, e := range events {
		m.Emit(e)
	}
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
