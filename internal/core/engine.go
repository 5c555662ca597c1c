package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// sharedDefaultModels builds the default performance models once per
// process: every engine without explicit models reads the same instance
// (Models are concurrency-safe after construction), keeping the framework's
// fixed memory overhead independent of how many engines run.
var sharedDefaultModels = sync.OnceValue(perfmodel.Default)

// Config parametrizes an Engine. The zero value is usable: every field
// falls back to the paper's evaluation settings (Section 5: window size
// 100, finished ratio 0.6, monitoring rate 50 ms, rule Rtime, default
// performance models).
type Config struct {
	// WindowSize is the number of instances monitored per round at each
	// allocation context.
	WindowSize int
	// FinishedRatio is the fraction of the monitored window that must
	// have finished (become unreachable) before the context may act.
	FinishedRatio float64
	// MonitorRate is the period of the background analysis task.
	MonitorRate time.Duration
	// Rule is the selection rule applied at analysis time. A zero Rule
	// (empty Name) uses Rtime; any other rule must pass Rule.Validate, or
	// engine construction panics with its error.
	Rule Rule
	// Models are the performance models consulted for cost estimates.
	Models *perfmodel.Models
	// CooldownWindows throttles monitoring: after each analysis round, the
	// next CooldownWindows×WindowSize instances are created unmonitored.
	// This bounds the sampled fraction of instances (the paper bounds it
	// through the 50ms monitoring rate against millions of creations per
	// second) and with it the monitor overhead. Zero uses the default
	// (3); negative disables the cooldown.
	CooldownWindows float64
	// AnalysisSpans, when true (and a Sink is attached), emits one
	// obs.ContextAnalyzed span event per context per analysis pass, with
	// the context's analyze duration. Off by default: span events are a
	// debugging aid and would grow traces by one line per context per
	// pass.
	AnalysisSpans bool
	// WarmStart, when non-nil, is consulted once per context registration:
	// a stored decision for the context's (final) name restores its variant
	// before the first collection is created, and the context skips rule
	// evaluation while its observed workload stays within driftThreshold of
	// the stored profile (see warmstart.go). Nil — the default — reproduces
	// the historical cold-start behavior exactly. The canonical
	// implementation is the warm-start store of internal/tuner.
	WarmStart WarmStarter
	// ConfidenceLevel, when in (0, 1), arms confidence-aware switching:
	// model curves that carry prediction variance widen each candidate's
	// accumulated cost into an interval at this level, and a switch fires
	// only when the candidate's conservative upper ratio clears every
	// criterion threshold. Overlapping intervals hold the current variant,
	// reported as ci_overlap decision records, switch_suppressed events and
	// the switches_suppressed_ci_total counter. Zero — the default —
	// disables all interval work: decisions and traces are byte-identical
	// to the point-estimate engine. Negative values clamp to 0 and values
	// ≥ 1 clamp to 0.999 (both reported as ConfigClamped).
	ConfidenceLevel float64
	// Name labels this engine in emitted events, distinguishing engines
	// when several share a sink or registry (e.g. the Table 5 sweep).
	Name string
	// Sink, when non-nil, receives the structured framework events of
	// package obs — the typed successor of the paper's "detailed log
	// system for tracing framework events" (Section 4.4). Each event is
	// delivered as it happens, on the goroutine that produced it: the one
	// running the analysis pass, or the caller of NewEngine, a context
	// constructor, SetModels or Close. A background pass and those callers
	// can overlap, so sinks may be called concurrently; keep them fast.
	// With a nil Sink the event paths are skipped entirely and add no
	// allocations.
	Sink obs.Sink
	// Metrics receives the engine's counters and histograms. Nil gets a
	// private registry; pass a shared one to aggregate across engines.
	Metrics *obs.Registry
}

// withDefaults fills unset fields with the paper's settings and reports the
// fields that validation had to rewrite, so misconfiguration surfaces as
// ConfigClamped events rather than silent clamping.
func (c Config) withDefaults() (Config, []obs.ConfigClamped) {
	var clamps []obs.ConfigClamped
	if c.WindowSize <= 0 {
		c.WindowSize = 100
	}
	if c.FinishedRatio <= 0 {
		c.FinishedRatio = 0.6
	}
	if c.FinishedRatio > 1 {
		clamps = append(clamps, obs.ConfigClamped{Field: "FinishedRatio", From: c.FinishedRatio, To: 1})
		c.FinishedRatio = 1
	}
	if c.MonitorRate <= 0 {
		c.MonitorRate = 50 * time.Millisecond
	}
	if c.Rule.Name == "" {
		c.Rule = Rtime()
	}
	if c.Models == nil {
		c.Models = sharedDefaultModels()
	}
	if c.CooldownWindows == 0 {
		c.CooldownWindows = 3
	}
	if c.CooldownWindows < 0 {
		// Negative means "cooldown disabled" (documented API), but it is
		// also the most common way to fat-finger the field — report it.
		clamps = append(clamps, obs.ConfigClamped{Field: "CooldownWindows", From: c.CooldownWindows, To: 0})
		c.CooldownWindows = 0
	}
	if c.ConfidenceLevel < 0 {
		clamps = append(clamps, obs.ConfigClamped{Field: "ConfidenceLevel", From: c.ConfidenceLevel, To: 0})
		c.ConfidenceLevel = 0
	}
	if c.ConfidenceLevel >= 1 {
		clamps = append(clamps, obs.ConfigClamped{Field: "ConfidenceLevel", From: c.ConfidenceLevel, To: 0.999})
		c.ConfidenceLevel = 0.999
	}
	return c, clamps
}

// Transition records one variant switch performed by an allocation context,
// feeding the Table 6 aggregation and the framework's trace log.
type Transition struct {
	Context string                // allocation-context name (site label)
	From    collections.VariantID //
	To      collections.VariantID //
	Round   int                   // monitoring round that triggered it
	// Ratios holds TC_D(new)/TC_D(current) per rule dimension at the
	// moment of the switch.
	Ratios map[perfmodel.Dimension]float64
	When   time.Time
}

// analyzable is the engine-facing face of a generic allocation context.
type analyzable interface {
	analyze()
	contextName() string
	// rename disambiguates a duplicate site label; Engine.register calls it
	// before the context is published to the analysis schedule.
	rename(string)
	windowStats() obs.ContextWindowStat
	// warmStart restores a persisted decision; Engine.register calls it
	// (pre-publication) when Config.WarmStart knows the site. False means
	// the stored variant is not in the context's candidate pool.
	warmStart(WarmDecision) bool
	siteSnapshot() SiteSnapshot
	// decisionRecords returns the context's explain ring, oldest first.
	decisionRecords() []DecisionRecord
	// siteStatus is siteSnapshot plus the live window/cooldown counters and
	// last decision outcome, captured under one lock for the diag server.
	siteStatus() SiteStatus
}

// Engine coordinates allocation contexts: it owns the configuration, the
// periodic analysis loop, the transition log and the telemetry plumbing.
// Create one per application (or per subsystem) and register contexts
// against it.
type Engine struct {
	cfg     Config
	sink    obs.Sink      // Config.Sink; nil disables events
	metrics *obs.Registry // never nil

	// models is the hot-swappable cost-model handle (Config.Models at
	// construction, replaced by SetModels). Contexts load it when they
	// build a window's cost aggregate, so a swap takes effect at each
	// context's next window without stopping monitoring.
	models atomic.Pointer[perfmodel.Models]
	// ruleDims are the distinct dimensions of cfg.Rule's criteria — the
	// only dimensions a window aggregate needs to accumulate (and the only
	// ones candidates need model curves for).
	ruleDims []perfmodel.Dimension
	// confZ is the normal quantile of cfg.ConfidenceLevel (0 when the
	// confidence gate is off); site cores arm their window aggregates with
	// it at construction.
	confZ float64

	mu          sync.Mutex
	contexts    []analyzable
	names       map[string]int // site label -> registrations seen (duplicate detection)
	transitions []Transition
	rounds      int // completed AnalyzeNow passes
	closed      bool

	// analysisMu serializes analysis passes; Close acquires it to wait
	// for any in-flight pass before returning.
	analysisMu sync.Mutex

	background bool // whether loop() was started
	stop       chan struct{}
	done       chan struct{}
}

// NewEngine returns an Engine running its background analysis loop at the
// configured monitoring rate. Call Close to stop it.
func NewEngine(cfg Config) *Engine {
	e := newEngine(cfg)
	e.background = true
	go e.loop()
	return e
}

// NewEngineManual returns an Engine without a background loop; analysis
// runs only when AnalyzeNow is called. Experiments and tests use this for
// deterministic scheduling.
func NewEngineManual(cfg Config) *Engine {
	return newEngine(cfg)
}

func newEngine(cfg Config) *Engine {
	cfg, clamps := cfg.withDefaults()
	if err := cfg.Rule.Validate(); err != nil {
		panic(err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	e := &Engine{
		cfg:     cfg,
		sink:    cfg.Sink,
		metrics: cfg.Metrics,
		names:   make(map[string]int),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.models.Store(cfg.Models)
	if cfg.ConfidenceLevel > 0 {
		// Two-sided normal quantile: level 0.95 → z ≈ 1.96.
		e.confZ = math.Sqrt2 * math.Erfinv(cfg.ConfidenceLevel)
	}
	for _, crit := range cfg.Rule.Criteria {
		seen := false
		for _, d := range e.ruleDims {
			if d == crit.Dimension {
				seen = true
				break
			}
		}
		if !seen {
			e.ruleDims = append(e.ruleDims, crit.Dimension)
		}
	}
	for _, cl := range clamps {
		e.metrics.ConfigClamps.Add(1)
		if e.sink != nil {
			cl.Engine = cfg.Name
			e.sink.Emit(cl)
		}
	}
	return e
}

func (e *Engine) loop() {
	defer close(e.done)
	ticker := time.NewTicker(e.cfg.MonitorRate)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.AnalyzeNow()
		}
	}
}

// Close stops the background loop (if any) and waits for any in-flight
// analysis pass — background or manual — to drain before returning. It is
// idempotent. Contexts remain usable for collection creation afterwards but
// no further analysis runs unless AnalyzeNow is called explicitly.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	background := e.background
	e.mu.Unlock()
	if background {
		close(e.stop)
		<-e.done
	}
	// Wait for a concurrent AnalyzeNow caller to finish its pass.
	e.analysisMu.Lock()
	e.analysisMu.Unlock() //nolint:staticcheck // empty critical section is the wait
	if e.sink != nil {
		e.mu.Lock()
		ev := obs.EngineClosed{
			Engine:      e.cfg.Name,
			Contexts:    len(e.contexts),
			Rounds:      e.rounds,
			Transitions: len(e.transitions),
		}
		e.mu.Unlock()
		e.sink.Emit(ev)
		// Drain any buffering sink (JSONL, or a Multi over one): the trace
		// is complete on disk the moment Close returns.
		if err := obs.FlushSink(e.sink); err != nil {
			e.metrics.SinkFlushErrors.Add(1)
		}
	}
}

// AnalyzeNow runs one synchronous analysis pass over every registered
// context. The background loop calls this on each tick. Passes are
// serialized: concurrent callers queue rather than interleave. A pass
// analyzes the contexts in registration order on the calling goroutine, so
// its event stream is deterministic at any GOMAXPROCS.
func (e *Engine) AnalyzeNow() {
	e.analysisMu.Lock()
	defer e.analysisMu.Unlock()
	e.mu.Lock()
	ctxs := make([]analyzable, len(e.contexts))
	copy(ctxs, e.contexts)
	round := e.rounds
	e.mu.Unlock()
	if e.sink != nil {
		e.sink.Emit(obs.RoundStarted{Engine: e.cfg.Name, Round: round, Contexts: len(ctxs)})
	}
	start := time.Now()
	// The analysis pass runs under a pprof label so CPU profiles attribute
	// the framework's self-overhead to "collectionswitch=analysis" rather
	// than smearing it over the application's call stacks; SelfOverheadNs
	// accumulates the same wall time for the /metrics overhead fraction.
	pprof.Do(context.Background(), pprof.Labels("collectionswitch", "analysis"), func(context.Context) {
		for _, c := range ctxs {
			e.analyzeOne(c, round)
		}
	})
	elapsed := time.Since(start)
	e.metrics.AnalysisRounds.Add(1)
	e.metrics.AnalysisLatency.Observe(elapsed.Seconds())
	e.metrics.SelfOverheadNs.Add(elapsed.Nanoseconds())
	e.mu.Lock()
	e.rounds++
	e.mu.Unlock()
	if e.sink != nil {
		stats := make([]obs.ContextWindowStat, len(ctxs))
		for i, c := range ctxs {
			stats[i] = c.windowStats()
		}
		e.sink.Emit(obs.RoundCompleted{
			Engine:     e.cfg.Name,
			Round:      round,
			DurationNs: elapsed.Nanoseconds(),
			Contexts:   stats,
		})
	}
}

// analyzeOne analyzes a single context, wrapping it in a ContextAnalyzed
// span when Config.AnalysisSpans asked for per-context latency telemetry.
func (e *Engine) analyzeOne(c analyzable, round int) {
	if e.sink == nil || !e.cfg.AnalysisSpans {
		c.analyze()
		return
	}
	start := time.Now()
	c.analyze()
	e.sink.Emit(obs.ContextAnalyzed{
		Engine:     e.cfg.Name,
		Round:      round,
		Context:    c.contextName(),
		DurationNs: time.Since(start).Nanoseconds(),
	})
}

// register adds a context to the analysis schedule. Registration against a
// closed engine is a logged no-op: the context still creates collections but
// is never analyzed. Duplicate site labels are disambiguated with a "#N"
// suffix (second registration of "foo" becomes "foo#2") so their Table 6
// rows and trace lines never silently merge; the rename is reported through
// a DuplicateContextName warning event.
func (e *Engine) register(c analyzable) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.metrics.RegistrationsDropped.Add(1)
		if e.sink != nil {
			e.sink.Emit(obs.ContextRegistered{Engine: e.cfg.Name, Context: c.contextName(), Dropped: true})
		}
		return
	}
	base := c.contextName()
	var dup *obs.DuplicateContextName
	if n := e.names[base]; n > 0 {
		// Probe for a free "#N" suffix: an explicit WithName("foo#2") may
		// already occupy the obvious candidate.
		renamed := ""
		for {
			n++
			renamed = fmt.Sprintf("%s#%d", base, n)
			if e.names[renamed] == 0 {
				break
			}
		}
		e.names[base] = n
		e.names[renamed] = 1
		c.rename(renamed)
		dup = &obs.DuplicateContextName{Engine: e.cfg.Name, Name: base, Renamed: renamed}
	} else {
		e.names[base] = 1
	}
	e.mu.Unlock()
	// Warm start happens between name resolution and publication: the
	// restored variant must be in place before the context can be analyzed
	// or create its first collection, and the lookup runs outside the engine
	// lock (WarmStarter implementations own their own synchronization).
	var warm *obs.WarmStart
	if ws := e.cfg.WarmStart; ws != nil {
		if dec, ok := ws.WarmLookup(c.contextName()); ok && c.warmStart(dec) {
			e.metrics.WarmStarts.Add(1)
			warm = &obs.WarmStart{Engine: e.cfg.Name, Context: c.contextName(), Variant: string(dec.Variant)}
		}
	}
	e.mu.Lock()
	e.contexts = append(e.contexts, c)
	e.mu.Unlock()
	e.metrics.ContextsRegistered.Add(1)
	if e.sink != nil {
		if dup != nil {
			e.sink.Emit(*dup)
		}
		e.sink.Emit(obs.ContextRegistered{Engine: e.cfg.Name, Context: c.contextName()})
		if warm != nil {
			e.sink.Emit(*warm)
		}
	}
}

// logTransition appends to the transition log and mirrors the switch onto
// the event stream and the transition counters.
func (e *Engine) logTransition(t Transition) {
	e.mu.Lock()
	e.transitions = append(e.transitions, t)
	e.mu.Unlock()
	e.metrics.IncTransition(t.Context, string(t.From), string(t.To))
	if e.sink != nil {
		ratios := make(map[string]float64, len(t.Ratios))
		for d, v := range t.Ratios {
			ratios[string(d)] = v
		}
		e.sink.Emit(obs.Transition{
			Engine:  e.cfg.Name,
			Context: t.Context,
			From:    string(t.From),
			To:      string(t.To),
			Round:   t.Round,
			Ratios:  ratios,
		})
	}
}

// windowClose carries one round-close request from a site core into
// closeWindow: the folded aggregate plus everything the decision record
// needs to explain the outcome.
type windowClose struct {
	name      string
	agg       *costAgg
	current   collections.VariantID
	round     int   // 0-based index of the round being closed
	threshold int64 // adaptive-variant transition threshold
	finished  int   // instances folded before decision time
	cooldown  int   // unmonitored creations the context skips next
	// skipRule holds a warm-started context on its restored variant: the
	// window still closes (telemetry, cooldown, round advance) but no rule
	// is evaluated and no transition can occur. drift is the measured
	// profile drift that justified the hold.
	skipRule bool
	drift    float64
	// modelGaps lists the candidates the aggregate had to exclude for
	// missing model curves (explain data only).
	modelGaps []collections.VariantID
}

// closeWindow finishes one monitoring round at a context: it evaluates the
// selection rule over the folded aggregate, records any transition, and
// emits the WindowClosed / CooldownEntered telemetry (WindowClosed reports
// the round 1-based to match the legacy trace wording). It returns the
// variant future instantiations should use plus the decision record
// explaining the outcome (the caller owns pushing it into the context's
// ring under its lock). The record comes back by pointer: returned by value
// it deepened the close's frames enough that a close after a collection,
// which shrinks the goroutine's stack, had to grow the stack again, and
// BenchmarkWindowClose ran 2.3 times slower.
func (e *Engine) closeWindow(wc windowClose) (collections.VariantID, *DecisionRecord) {
	current := wc.current
	rec := &DecisionRecord{
		When:      time.Now(),
		Round:     wc.round,
		Variant:   wc.current,
		ModelGaps: wc.modelGaps,
		Folded:    wc.finished,
	}
	if wc.skipRule {
		rec.Outcome = OutcomeWarmHold
		rec.Drift = wc.drift
	} else {
		e.metrics.RuleEvaluations.Add(1)
		d, _, miss, missC1 := decideExplain(wc.agg, wc.current, e.cfg.Rule, wc.threshold, false)
		if d.ok {
			e.logTransition(Transition{
				Context: wc.name, From: wc.current, To: d.switchTo,
				Round: wc.round, Ratios: ratioMap(e.cfg.Rule, d.ratios), When: time.Now(),
			})
			current = d.switchTo
		} else if d.suppressedTo != "" {
			// The confidence gate withheld the only would-be switch: surface
			// it so a held site is distinguishable from one with nothing to
			// switch to.
			e.metrics.SwitchesSuppressedCI.Add(1)
			if e.sink != nil {
				e.sink.Emit(obs.SwitchSuppressed{
					Engine:  e.cfg.Name,
					Context: wc.name,
					From:    string(wc.current),
					To:      string(d.suppressedTo),
					Round:   wc.round,
					Ratio:   d.suppressedC1,
					Level:   e.cfg.ConfidenceLevel,
				})
			}
		}
		// The record keeps the closed aggregate, which nothing folds into
		// again, and derives its candidate estimates when read.
		rec.agg = wc.agg
		thr1 := e.cfg.Rule.Criteria[0].Threshold
		switch {
		case d.ok:
			rec.Outcome = OutcomeSwitched
			rec.Winner = d.switchTo
			rec.Margin = thr1 - d.ratios[0]
		case d.suppressedTo != "":
			rec.Outcome = OutcomeCIOverlap
			rec.Winner = d.suppressedTo
			rec.Margin = thr1 - d.suppressedC1
		case wc.agg.folded == 0 || wc.agg.candidateIndex(wc.current) < 0:
			// decideExplain bailed before ranking: the aggregate has no
			// entry for the current variant (its model curves are missing)
			// or nothing was folded.
			rec.Outcome = OutcomeModelMissing
		case miss == "":
			// Ranking ran but no alternative was considered at all.
			if len(wc.modelGaps) > 0 {
				rec.Outcome = OutcomeModelMissing
			} else {
				rec.Outcome = OutcomeHeld
			}
		default:
			rec.Outcome = OutcomeHeld
			rec.Winner = miss
			rec.Margin = thr1 - missC1
		}
	}
	e.metrics.WindowsClosed.Add(1)
	if wc.cooldown > 0 {
		e.metrics.CooldownsEntered.Add(1)
	}
	if e.sink != nil {
		e.sink.Emit(obs.WindowClosed{
			Engine:        e.cfg.Name,
			Context:       wc.name,
			Round:         wc.round + 1,
			Variant:       string(current),
			WindowSize:    e.cfg.WindowSize,
			Finished:      wc.finished,
			FinishedRatio: float64(wc.finished) / float64(e.cfg.WindowSize),
			SizeSpread:    wc.agg.sizeSpread(),
		})
		if wc.cooldown > 0 {
			e.sink.Emit(obs.CooldownEntered{
				Engine:   e.cfg.Name,
				Context:  wc.name,
				Round:    wc.round + 1,
				SkipNext: wc.cooldown,
			})
		}
	}
	return current, rec
}

// SetModels hot-swaps the engine's performance models at runtime without
// stopping monitoring: each context picks up the new models at its next
// analysis pass — a window already being monitored re-folds its collected
// workloads against the new models, so the swap governs that window's
// decision rather than waiting a full round.
// Passing nil restores the shared analytic defaults. The swap is reported
// through an obs.ModelsSwapped event and the ModelSwaps counter. Typical use
// is loading a machine-built JSON model file (cmd/perfmodel) into a running
// engine via perfmodel.LoadFile.
func (e *Engine) SetModels(m *perfmodel.Models) {
	defaulted := m == nil
	if defaulted {
		m = sharedDefaultModels()
	}
	e.models.Store(m)
	e.metrics.ModelSwaps.Add(1)
	if e.sink != nil {
		e.sink.Emit(obs.ModelsSwapped{Engine: e.cfg.Name, Curves: m.Len(), Defaulted: defaulted})
	}
}

// Models returns the engine's active performance models (the Config.Models
// at construction, or the latest SetModels value).
func (e *Engine) Models() *perfmodel.Models { return e.models.Load() }

// Transitions returns a copy of the transition log in occurrence order.
func (e *Engine) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Transition, len(e.transitions))
	copy(out, e.transitions)
	return out
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Closed reports whether Close has begun. A closed engine runs no further
// background analysis and drops new registrations, but its contexts remain
// usable for collection creation and every snapshot surface (SiteStatuses,
// Explain, Transitions) keeps serving the last state — which is what the
// introspection endpoints and the service lifecycle consult it for.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Metrics returns the engine's metrics registry (never nil).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// ContextCount returns the number of registered allocation contexts.
func (e *Engine) ContextCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.contexts)
}
