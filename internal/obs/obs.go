// Package obs is the observability layer of the CollectionSwitch engine:
// typed framework events delivered to pluggable sinks, plus a metrics
// registry of atomic counters, gauges and histograms.
//
// The paper describes "a detailed log system for tracing framework events"
// as its debuggability mitigation (Section 4.4). This package upgrades that
// story from an unstructured printf hook to structured telemetry: every
// framework action — context registration, analysis rounds, window
// completion, variant transitions, cooldowns, configuration clamping,
// engine shutdown — is a typed event that can be exported as JSONL,
// buffered in memory, fanned out to several sinks at once, or rendered
// through a printf adapter (LogfSink). The quantities the paper's evaluation
// argues about (monitored fraction, finished ratio, analysis-round latency,
// per-site transition churn) are first-class metrics.
//
// The package is dependency-free: it imports only the standard library and
// is imported by internal/core, internal/apps and the command harnesses.
//
// # Round numbering
//
// Two independent sequences are both called "round"; every event documents
// which one it carries, and TestRoundNumberingConventions (internal/core)
// pins the relationships:
//
//   - Engine analysis passes are 0-based: the first AnalyzeNow pass emits
//     RoundStarted/RoundCompleted/ContextAnalyzed with Round 0.
//   - Context monitoring rounds are 1-based completed-round ordinals:
//     when a context's Nth window closes, WindowClosed, CooldownEntered and
//     the ContextWindowStat snapshots attached to later RoundCompleted
//     events all report Round == N. ContextWindowStat.Round is therefore
//     simultaneously "rounds completed so far" and "the 1-based number of
//     the last completed round" — the same integer.
//   - Transition.Round is the single, deliberate exception: it reports the
//     0-based index of the monitoring round that was still in progress when
//     the switch decision fired (== WindowClosed.Round-1 for the window
//     that closed). It is kept 0-based because the legacy trace line
//     "transition at %s (round %d)" is byte-compatibility-pinned, and
//     existing JSONL consumers rely on the serialized value.
package obs

import "fmt"

// Kind discriminates event types in serialized form.
type Kind string

// The event taxonomy. One Kind per concrete event struct; every constant
// carries a one-line meaning (enforced by TestEventKindsExhaustive).
const (
	KindContextRegistered    Kind = "context_registered"     // allocation context joined (or was refused by) an engine
	KindDuplicateContextName Kind = "duplicate_context_name" // site label collision resolved with a "#N" rename
	KindRoundStarted         Kind = "round_started"          // engine analysis pass began
	KindRoundCompleted       Kind = "round_completed"        // engine analysis pass finished, with per-context window stats
	KindContextAnalyzed      Kind = "context_analyzed"       // per-context analysis span (opt-in, Config.AnalysisSpans)
	KindWindowClosed         Kind = "window_closed"          // one monitoring round completed at a context
	KindTransition           Kind = "transition"             // a context switched collection variants
	KindCooldownEntered      Kind = "cooldown_entered"       // context began skipping creations after a round
	KindConfigClamped        Kind = "config_clamped"         // configuration field rewritten by validation
	KindEngineClosed         Kind = "engine_closed"          // engine shut down, with lifetime totals
	KindModelsSwapped        Kind = "models_swapped"         // cost models hot-swapped at runtime
	KindModelMissing         Kind = "model_missing"          // candidate excluded from ranking for a missing model curve
	KindBenchmarkProgress    Kind = "benchmark_progress"     // microbenchmark sweep progress (cmd/perfmodel)
	KindCheckCompleted       Kind = "check_completed"        // differential oracle check of one variant finished
	KindCheckDivergence      Kind = "check_divergence"       // differential oracle check found a mismatch
	KindWarmStart            Kind = "warm_start"             // context restored a persisted variant decision
	KindCalibrationStarted   Kind = "calibration_started"    // online-calibration cycle began
	KindCalibrationCompleted Kind = "calibration_completed"  // online-calibration cycle finished
	KindCalibrationDrift     Kind = "calibration_drift"      // warm context's workload drifted past the threshold
	KindStoreSaved           Kind = "store_saved"            // warm-start store written to disk
	KindStoreLoaded          Kind = "store_loaded"           // warm-start store read and accepted
	KindStoreRejected        Kind = "store_rejected"         // warm-start store discarded by validation
	KindSwitchSuppressed     Kind = "switch_suppressed"      // variant switch withheld: confidence intervals overlap
	KindSearchStarted        Kind = "search_started"         // offline multi-objective search began (cmd/collopt)
	KindSearchFront          Kind = "search_front"           // offline search produced a Pareto front
	KindPatchEmitted         Kind = "patch_emitted"          // collopt wrote a variant-pinning source patch
)

// Event is one structured framework event. Concrete types are plain value
// structs with JSON tags so every event round-trips through the JSONL sink.
type Event interface {
	// EventKind returns the serialization discriminator.
	EventKind() Kind
	// EngineName returns the label of the engine that emitted the event
	// ("" for unlabeled engines).
	EngineName() string
	// Logline renders the event as a printf pair. The formats of the
	// events of the original printf trace log (context registration,
	// transitions, completed windows) are byte-identical to that log, so
	// a LogfSink reproduces it.
	Logline() (format string, args []any)
}

// Sink receives events. Emit may be called from the analysis goroutine and
// must be safe for concurrent use; implementations should return quickly.
type Sink interface {
	Emit(Event)
}

// Line renders an event through its Logline formatting.
func Line(e Event) string {
	format, args := e.Logline()
	return fmt.Sprintf(format, args...)
}

// ContextRegistered reports an allocation context joining (or, when Dropped,
// being refused by) an engine.
type ContextRegistered struct {
	Engine  string `json:"engine,omitempty"`
	Context string `json:"context"`
	// Dropped marks a registration that arrived after Close: the context
	// stays usable for collection creation but is never analyzed.
	Dropped bool `json:"dropped,omitempty"`
}

func (ContextRegistered) EventKind() Kind      { return KindContextRegistered }
func (e ContextRegistered) EngineName() string { return e.Engine }
func (e ContextRegistered) Logline() (string, []any) {
	if e.Dropped {
		return "context registration ignored (engine closed): %s", []any{e.Context}
	}
	return "context registered: %s", []any{e.Context}
}

// DuplicateContextName warns that a context registered under a site label an
// earlier context already claimed; the engine disambiguated the newcomer
// with a "#N" suffix so its Table 6 rows and trace lines never silently
// merge with the first registrant's.
type DuplicateContextName struct {
	Engine string `json:"engine,omitempty"`
	// Name is the clashing label; Renamed is the label actually assigned.
	Name    string `json:"name"`
	Renamed string `json:"renamed"`
}

func (DuplicateContextName) EventKind() Kind      { return KindDuplicateContextName }
func (e DuplicateContextName) EngineName() string { return e.Engine }
func (e DuplicateContextName) Logline() (string, []any) {
	return "duplicate context name %q renamed to %q", []any{e.Name, e.Renamed}
}

// ContextWindowStat is the per-context monitoring state snapshot attached to
// RoundCompleted events. Round follows the 1-based completed-round
// convention (see "Round numbering" in the package docs): it equals
// WindowClosed.Round of the context's most recently closed window, or 0
// while the first window is still open.
type ContextWindowStat struct {
	Context    string `json:"context"`
	Variant    string `json:"variant"`
	Round      int    `json:"round"`       // completed rounds == 1-based last closed round
	WindowFill int    `json:"window_fill"` // monitored instances in the open window
	Folded     int    `json:"folded"`      // instances folded into the aggregate
	Cooldown   int    `json:"cooldown"`    // unmonitored creations remaining
}

// RoundStarted reports the beginning of one engine analysis pass. Round is
// the 0-based pass index (a different sequence from the per-context
// monitoring rounds — see "Round numbering" in the package docs).
type RoundStarted struct {
	Engine   string `json:"engine,omitempty"`
	Round    int    `json:"round"`
	Contexts int    `json:"contexts"`
}

func (RoundStarted) EventKind() Kind      { return KindRoundStarted }
func (e RoundStarted) EngineName() string { return e.Engine }
func (e RoundStarted) Logline() (string, []any) {
	return "analysis round %d started (%d contexts)", []any{e.Round, e.Contexts}
}

// RoundCompleted reports the end of one engine analysis pass with its
// duration — the quantity behind the Figure 7 overhead claim — and the
// window state of every analyzed context.
type RoundCompleted struct {
	Engine     string              `json:"engine,omitempty"`
	Round      int                 `json:"round"`
	DurationNs int64               `json:"duration_ns"`
	Contexts   []ContextWindowStat `json:"contexts,omitempty"`
}

func (RoundCompleted) EventKind() Kind      { return KindRoundCompleted }
func (e RoundCompleted) EngineName() string { return e.Engine }
func (e RoundCompleted) Logline() (string, []any) {
	return "analysis round %d completed in %dns (%d contexts)",
		[]any{e.Round, e.DurationNs, len(e.Contexts)}
}

// ContextAnalyzed is a per-context analysis span: the duration one context's
// analyze step took inside engine pass Round (0-based, matching
// RoundStarted/RoundCompleted). Emitted only for engines configured with
// AnalysisSpans — it adds one event per context per pass, so it is opt-in
// debugging telemetry rather than part of the default trace. Spans from one
// pass arrive in registration order.
type ContextAnalyzed struct {
	Engine     string `json:"engine,omitempty"`
	Round      int    `json:"round"`
	Context    string `json:"context"`
	DurationNs int64  `json:"duration_ns"`
}

func (ContextAnalyzed) EventKind() Kind      { return KindContextAnalyzed }
func (e ContextAnalyzed) EngineName() string { return e.Engine }
func (e ContextAnalyzed) Logline() (string, []any) {
	return "context %s analyzed in %dns (pass %d)", []any{e.Context, e.DurationNs, e.Round}
}

// WindowClosed reports one allocation context completing a monitoring round:
// the window filled, the finished ratio was reached, and the selection rule
// was evaluated. Round is 1-based (the round that just completed) to match
// the legacy trace wording.
type WindowClosed struct {
	Engine     string `json:"engine,omitempty"`
	Context    string `json:"context"`
	Round      int    `json:"round"`
	Variant    string `json:"variant"` // variant after any switch
	WindowSize int    `json:"window_size"`
	// Finished is the number of instances that became unreachable before
	// decision time; FinishedRatio = Finished/WindowSize (the paper's
	// gating quantity, Section 4.3).
	Finished      int     `json:"finished"`
	FinishedRatio float64 `json:"finished_ratio"`
	// SizeSpread is maxSize/minSize over the folded workloads — the
	// adaptive-variant gate of Section 3.2.
	SizeSpread float64 `json:"size_spread"`
}

func (WindowClosed) EventKind() Kind      { return KindWindowClosed }
func (e WindowClosed) EngineName() string { return e.Engine }
func (e WindowClosed) Logline() (string, []any) {
	return "round %d complete at %s (variant %s)", []any{e.Round, e.Context, e.Variant}
}

// Transition reports one variant switch with the full TC_D ratio map the
// rule evaluated — everything Table 6 needs travels on this event.
type Transition struct {
	Engine  string `json:"engine,omitempty"`
	Context string `json:"context"`
	From    string `json:"from"`
	To      string `json:"to"`
	Round   int    `json:"round"` // 0-based monitoring round that triggered it
	// Ratios holds TC_D(new)/TC_D(current) per rule dimension.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

func (Transition) EventKind() Kind      { return KindTransition }
func (e Transition) EngineName() string { return e.Engine }
func (e Transition) Logline() (string, []any) {
	return "transition at %s (round %d): %s -> %s", []any{e.Context, e.Round, e.From, e.To}
}

// CooldownEntered reports a context beginning its post-round cooldown: the
// next SkipNext instance creations are handed out unmonitored.
type CooldownEntered struct {
	Engine   string `json:"engine,omitempty"`
	Context  string `json:"context"`
	Round    int    `json:"round"` // 1-based round that triggered the cooldown
	SkipNext int    `json:"skip_next"`
}

func (CooldownEntered) EventKind() Kind      { return KindCooldownEntered }
func (e CooldownEntered) EngineName() string { return e.Engine }
func (e CooldownEntered) Logline() (string, []any) {
	return "cooldown at %s after round %d: next %d instances unmonitored",
		[]any{e.Context, e.Round, e.SkipNext}
}

// ConfigClamped reports a configuration field that was silently rewritten by
// validation — misconfiguration made visible (e.g. FinishedRatio > 1).
type ConfigClamped struct {
	Engine string  `json:"engine,omitempty"`
	Field  string  `json:"field"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
}

func (ConfigClamped) EventKind() Kind      { return KindConfigClamped }
func (e ConfigClamped) EngineName() string { return e.Engine }
func (e ConfigClamped) Logline() (string, []any) {
	return "config clamped: %s %g -> %g", []any{e.Field, e.From, e.To}
}

// EngineClosed reports engine shutdown after any in-flight analysis pass has
// drained.
type EngineClosed struct {
	Engine      string `json:"engine,omitempty"`
	Contexts    int    `json:"contexts"`
	Rounds      int    `json:"rounds"` // engine analysis passes run
	Transitions int    `json:"transitions"`
}

func (EngineClosed) EventKind() Kind      { return KindEngineClosed }
func (e EngineClosed) EngineName() string { return e.Engine }
func (e EngineClosed) Logline() (string, []any) {
	return "engine closed: %d contexts, %d rounds, %d transitions",
		[]any{e.Contexts, e.Rounds, e.Transitions}
}

// ModelsSwapped reports a runtime cost-model hot-swap (Engine.SetModels):
// from the next window close on, every context ranks its candidates against
// the new curves. Curves is the size of the new model set.
type ModelsSwapped struct {
	Engine string `json:"engine,omitempty"`
	Curves int    `json:"curves"`
	// Defaulted marks a swap to the shared analytic defaults (SetModels(nil)).
	Defaulted bool `json:"defaulted,omitempty"`
}

func (ModelsSwapped) EventKind() Kind      { return KindModelsSwapped }
func (e ModelsSwapped) EngineName() string { return e.Engine }
func (e ModelsSwapped) Logline() (string, []any) {
	if e.Defaulted {
		return "models swapped to analytic defaults (%d curves)", []any{e.Curves}
	}
	return "models swapped (%d curves)", []any{e.Curves}
}

// ModelMissing warns that a candidate variant lacks a cost curve the active
// rule needs (the named op × dimension is the first gap found). The engine
// skips the candidate for the context's ranking instead of mis-ranking it
// against fully modeled candidates; it is emitted once per (context,
// variant) per model set.
type ModelMissing struct {
	Engine    string `json:"engine,omitempty"`
	Context   string `json:"context"`
	Variant   string `json:"variant"`
	Op        string `json:"op"`
	Dimension string `json:"dimension"`
}

func (ModelMissing) EventKind() Kind      { return KindModelMissing }
func (e ModelMissing) EngineName() string { return e.Engine }
func (e ModelMissing) Logline() (string, []any) {
	return "candidate %s skipped at %s: no model curve for %s/%s",
		[]any{e.Variant, e.Context, e.Op, e.Dimension}
}

// BenchmarkProgress reports one completed (variant, op) cell of a model
// building run (perfmodel.Builder) — Done of Total cells fitted.
type BenchmarkProgress struct {
	Variant string `json:"variant"`
	Op      string `json:"op"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
}

func (BenchmarkProgress) EventKind() Kind    { return KindBenchmarkProgress }
func (BenchmarkProgress) EngineName() string { return "" }
func (e BenchmarkProgress) Logline() (string, []any) {
	return "benchmarked %s %s (%d/%d)", []any{e.Variant, e.Op, e.Done, e.Total}
}

// CheckCompleted reports one differential-checker run (internal/check): Ops
// operations replayed against variant and oracle from a deterministic Seed.
type CheckCompleted struct {
	Variant     string `json:"variant"`
	Abstraction string `json:"abstraction"`
	Seed        int64  `json:"seed"`
	Ops         int    `json:"ops"`
	Diverged    bool   `json:"diverged,omitempty"`
}

func (CheckCompleted) EventKind() Kind    { return KindCheckCompleted }
func (CheckCompleted) EngineName() string { return "" }
func (e CheckCompleted) Logline() (string, []any) {
	if e.Diverged {
		return "checked %s: DIVERGED (seed %d, %d ops)", []any{e.Variant, e.Seed, e.Ops}
	}
	return "checked %s: ok (seed %d, %d ops)", []any{e.Variant, e.Seed, e.Ops}
}

// WarmStart reports an allocation context restored from a persisted site
// decision at registration time: the context begins on Variant (the variant
// the previous process converged to) instead of the abstraction default, and
// its selection rule stays dormant until the observed workload profile
// drifts past the engine's drift threshold.
type WarmStart struct {
	Engine  string `json:"engine,omitempty"`
	Context string `json:"context"`
	Variant string `json:"variant"`
}

func (WarmStart) EventKind() Kind      { return KindWarmStart }
func (e WarmStart) EngineName() string { return e.Engine }
func (e WarmStart) Logline() (string, []any) {
	return "warm start at %s: variant %s restored from store", []any{e.Context, e.Variant}
}

// CalibrationStarted reports the beginning of one online calibration cycle
// (internal/tuner): Sites is the number of allocation contexts with observed
// workload data, Cells the number of (variant, op, size) shadow-benchmark
// cells planned for the cycle (the duty-cycle budget may cut it short).
type CalibrationStarted struct {
	Engine string `json:"engine,omitempty"`
	Sites  int    `json:"sites"`
	Cells  int    `json:"cells"`
}

func (CalibrationStarted) EventKind() Kind      { return KindCalibrationStarted }
func (e CalibrationStarted) EngineName() string { return e.Engine }
func (e CalibrationStarted) Logline() (string, []any) {
	return "calibration started: %d sites, %d cells planned", []any{e.Sites, e.Cells}
}

// CalibrationCompleted reports the end of one calibration cycle: Measured of
// the planned cells were shadow-benchmarked before the duty-cycle budget ran
// out, taking ShadowNs of wall-clock; Swapped marks cycles that folded the
// measurements into the engine's models via SetModels.
type CalibrationCompleted struct {
	Engine   string `json:"engine,omitempty"`
	Measured int    `json:"measured"`
	Planned  int    `json:"planned"`
	ShadowNs int64  `json:"shadow_ns"`
	Swapped  bool   `json:"swapped,omitempty"`
}

func (CalibrationCompleted) EventKind() Kind      { return KindCalibrationCompleted }
func (e CalibrationCompleted) EngineName() string { return e.Engine }
func (e CalibrationCompleted) Logline() (string, []any) {
	return "calibration completed: %d/%d cells in %dns", []any{e.Measured, e.Planned, e.ShadowNs}
}

// CalibrationDrift reports a warm-started context leaving its dormant state:
// the workload profile observed over the latest monitoring window diverged
// from the persisted profile by Drift (≥ Threshold), so the context resumes
// normal rule evaluation — the monitoring window "re-opens".
type CalibrationDrift struct {
	Engine    string  `json:"engine,omitempty"`
	Context   string  `json:"context"`
	Drift     float64 `json:"drift"`
	Threshold float64 `json:"threshold"`
}

func (CalibrationDrift) EventKind() Kind      { return KindCalibrationDrift }
func (e CalibrationDrift) EngineName() string { return e.Engine }
func (e CalibrationDrift) Logline() (string, []any) {
	return "drift at %s: %.3f exceeds threshold %.3f, rule evaluation resumed",
		[]any{e.Context, e.Drift, e.Threshold}
}

// StoreSaved reports one atomic write of the warm-start store: Sites site
// decisions and Curves model curves persisted to Path.
type StoreSaved struct {
	Path   string `json:"path"`
	Sites  int    `json:"sites"`
	Curves int    `json:"curves"`
}

func (StoreSaved) EventKind() Kind    { return KindStoreSaved }
func (StoreSaved) EngineName() string { return "" }
func (e StoreSaved) Logline() (string, []any) {
	return "store saved to %s (%d sites, %d curves)", []any{e.Path, e.Sites, e.Curves}
}

// StoreLoaded reports a warm-start store accepted at startup: the machine
// fingerprint matched and Sites site decisions plus Curves refined model
// curves are available for warm starts.
type StoreLoaded struct {
	Path   string `json:"path"`
	Sites  int    `json:"sites"`
	Curves int    `json:"curves"`
}

func (StoreLoaded) EventKind() Kind    { return KindStoreLoaded }
func (StoreLoaded) EngineName() string { return "" }
func (e StoreLoaded) Logline() (string, []any) {
	return "store loaded from %s (%d sites, %d curves)", []any{e.Path, e.Sites, e.Curves}
}

// StoreRejected reports a warm-start store that failed validation — torn
// JSON, an unknown schema version, or a machine-fingerprint mismatch — and
// was discarded wholesale: the engine falls back to the analytic defaults
// with no partial state. Exactly one StoreRejected is emitted per failed
// load attempt.
type StoreRejected struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

func (StoreRejected) EventKind() Kind    { return KindStoreRejected }
func (StoreRejected) EngineName() string { return "" }
func (e StoreRejected) Logline() (string, []any) {
	return "store rejected at %s: %s", []any{e.Path, e.Reason}
}

// SwitchSuppressed reports a variant switch the rule's point estimates
// called for but confidence gating withheld: candidate To beat the incumbent
// From on every criterion's point ratio, yet at the engine's configured
// confidence level the candidate's upper cost bound did not stay under the
// threshold on every criterion, so the costs are statistically
// indistinguishable and the context holds — the anti-flapping half of
// confidence-aware switching.
type SwitchSuppressed struct {
	Engine  string `json:"engine,omitempty"`
	Context string `json:"context"`
	From    string `json:"from"`
	To      string `json:"to"`
	Round   int    `json:"round"` // 0-based monitoring round, like Transition.Round
	// Ratio is the candidate's point-estimate ratio on the rule's first
	// criterion; Level is the confidence level that suppressed the switch.
	Ratio float64 `json:"ratio"`
	Level float64 `json:"level"`
}

func (SwitchSuppressed) EventKind() Kind      { return KindSwitchSuppressed }
func (e SwitchSuppressed) EngineName() string { return e.Engine }
func (e SwitchSuppressed) Logline() (string, []any) {
	return "switch suppressed at %s (round %d): %s -> %s overlaps at confidence %g",
		[]any{e.Context, e.Round, e.From, e.To, e.Level}
}

// CheckDivergence reports a semantic divergence between a variant and the
// reference oracle, after shrinking: OpIndex is the failing position within
// the Ops-long minimal sequence, Detail the got-vs-want description.
type CheckDivergence struct {
	Variant     string `json:"variant"`
	Abstraction string `json:"abstraction"`
	Seed        int64  `json:"seed"`
	OpIndex     int    `json:"op_index"`
	Ops         int    `json:"ops"` // length of the shrunk sequence
	Detail      string `json:"detail"`
}

func (CheckDivergence) EventKind() Kind    { return KindCheckDivergence }
func (CheckDivergence) EngineName() string { return "" }
func (e CheckDivergence) Logline() (string, []any) {
	return "divergence in %s at op %d/%d (seed %d): %s",
		[]any{e.Variant, e.OpIndex, e.Ops, e.Seed, e.Detail}
}

// SearchStarted reports the start of one offline multi-objective search
// (cmd/collopt): the store the workload profiles came from, the allocation
// sites under search, the objectives, and the search seed.
type SearchStarted struct {
	Store      string   `json:"store"`
	Sites      int      `json:"sites"`
	Objectives []string `json:"objectives"`
	Seed       int64    `json:"seed"`
}

func (SearchStarted) EventKind() Kind    { return KindSearchStarted }
func (SearchStarted) EngineName() string { return "" }
func (e SearchStarted) Logline() (string, []any) {
	return "search started over %d sites on %v (store %s, seed %d)",
		[]any{e.Sites, e.Objectives, e.Store, e.Seed}
}

// SearchFront reports the outcome of one offline search: the Pareto front
// size, the number of cost evaluations spent, and how many front members
// dominate the all-baseline assignment on at least two objectives.
type SearchFront struct {
	Sites       int `json:"sites"`
	FrontSize   int `json:"front_size"`
	Evaluations int `json:"evaluations"`
	// DominatingBaseline counts front members no worse than the baseline
	// everywhere and strictly better on >= 2 objectives.
	DominatingBaseline int `json:"dominating_baseline"`
}

func (SearchFront) EventKind() Kind    { return KindSearchFront }
func (SearchFront) EngineName() string { return "" }
func (e SearchFront) Logline() (string, []any) {
	return "search front: %d assignments over %d sites (%d evaluations, %d dominate baseline)",
		[]any{e.FrontSize, e.Sites, e.Evaluations, e.DominatingBaseline}
}

// PatchEmitted reports one variant-pinning source patch written by collopt:
// the file rewritten, how many sites were pinned in it, and where the patch
// went (a unified diff, an -o output tree, or the file itself under -w).
type PatchEmitted struct {
	File   string `json:"file"`
	Pinned int    `json:"pinned"`
	Output string `json:"output"`
}

func (PatchEmitted) EventKind() Kind    { return KindPatchEmitted }
func (PatchEmitted) EngineName() string { return "" }
func (e PatchEmitted) Logline() (string, []any) {
	return "patch emitted for %s: %d sites pinned -> %s", []any{e.File, e.Pinned, e.Output}
}
