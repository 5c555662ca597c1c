package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// traceSink collects the printf rendering of events (obs.LogfSink) for
// assertions.
type traceSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *traceSink) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

func (s *traceSink) joined() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

func TestTraceLogEvents(t *testing.T) {
	sink := &traceSink{}
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: -1,
		Sink:            obs.NewLogfSink(sink.logf),
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("trace:list"))
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()

	log := sink.joined()
	for _, want := range []string{
		"context registered: trace:list",
		"transition at trace:list (round 0): list/array -> list/hasharray",
		"round 1 complete at trace:list (variant list/hasharray)",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("trace log missing %q; log:\n%s", want, log)
		}
	}
}

func TestNoTraceWithoutLogf(t *testing.T) {
	// With no Sink, tracing is disabled and must not panic anywhere on the
	// event paths.
	e := NewEngineManual(Config{WindowSize: 10, CooldownWindows: -1})
	defer e.Close()
	ctx := NewListContext[int](e)
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	if len(e.Transitions()) == 0 {
		t.Fatal("expected a transition")
	}
}
