// Package tuner implements online calibration and warm start: a background
// subsystem that refines the engine's performance models in-process and
// persists per-site decisions across restarts.
//
// The paper builds its empirical cost models in a separate offline
// benchmarking phase on the target machine (Section 4.1.2) and concedes the
// models are machine-specific. The tuner closes both gaps at runtime:
//
//   - It snapshots each live allocation context's observed workload shape
//     (operation mix, size statistics) from the monitoring data the engine
//     already collects, and shadow-benchmarks the candidate variants at the
//     sizes the workload actually exhibits — on a duty-cycled goroutine whose
//     wall-clock share is capped by a configurable budget, never on the
//     allocation fast path.
//   - Measured points are folded into the active models as piecewise
//     overrides (perfmodel.OverlayMeasured): the measurement wins inside the
//     sampled size bands, the prior analytic curve survives everywhere else.
//     Refined models are hot-swapped into the engine via Engine.SetModels.
//   - Refined models and per-site decisions persist to a versioned on-disk
//     Store keyed by machine fingerprint, so a restarted engine warm-starts
//     each site on its last-chosen variant (core.WarmStarter) and re-opens
//     selection only when the observed profile drifts.
package tuner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// storeSchema is the on-disk schema version. Files with any other version
// are rejected wholesale (forward- and backward-incompatible by design: a
// half-understood store is worse than a cold start).
const storeSchema = 1

// StoreFileName is the file a Store reads and writes inside its directory.
const StoreFileName = "collectionswitch-store.json"

// storeDoc is the on-disk form of a Store: schema version, the fingerprint
// of the machine the state was measured on, the per-site decisions, and the
// refined model set (nested in perfmodel's own JSON format).
type storeDoc struct {
	Schema      int                   `json:"schema"`
	Fingerprint perfmodel.Fingerprint `json:"fingerprint"`
	Sites       []core.SiteSnapshot   `json:"sites"`
	Models      json.RawMessage       `json:"models,omitempty"`
}

// Store is the persisted warm-start state: per-site decisions plus refined
// performance models, bound to one machine fingerprint. It implements
// core.WarmStarter, so it plugs directly into core.Config.WarmStart. A Store
// is safe for concurrent use.
type Store struct {
	dir     string
	sink    obs.Sink
	metrics *obs.Registry

	mu     sync.Mutex
	sites  map[string]core.SiteSnapshot
	order  []string // site insertion order, for deterministic files
	models *perfmodel.Models
}

// Open returns the Store rooted at dir, loading any persisted state found
// there. A missing file is a silent cold start. An invalid file — torn JSON,
// unknown schema version, a fingerprint from a different machine, or an
// undecodable nested model set — is discarded wholesale: the Store comes up
// empty (analytic defaults, cold sites) and exactly one obs.StoreRejected
// event (plus a StoreRejects count) reports why. Open never fails: the
// warm-start path must degrade to a cold start, not take the process down.
// sink and metrics may be nil.
func Open(dir string, sink obs.Sink, metrics *obs.Registry) *Store {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	s := &Store{
		dir:     dir,
		sink:    sink,
		metrics: metrics,
		sites:   make(map[string]core.SiteSnapshot),
	}
	s.load()
	return s
}

// Path returns the store file the Store reads and writes.
func (s *Store) Path() string { return filepath.Join(s.dir, StoreFileName) }

// load reads and validates the store file; any failure after the file is
// known to exist rejects the whole file via reject().
func (s *Store) load() {
	path := s.Path()
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.reject(fmt.Sprintf("unreadable: %v", err))
		}
		return // cold start: nothing persisted yet
	}
	parsed, err := parseStore(data, true)
	if err != nil {
		s.reject(err.Error())
		return
	}
	// Validation complete: adopt the state in one step (no partial loads).
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models = parsed.Models
	for _, site := range parsed.Sites {
		if _, seen := s.sites[site.Name]; !seen {
			s.order = append(s.order, site.Name)
		}
		s.sites[site.Name] = site
	}
	s.metrics.StoreLoads.Add(1)
	if s.sink != nil {
		curves := 0
		if parsed.Models != nil {
			curves = parsed.Models.Len()
		}
		s.sink.Emit(obs.StoreLoaded{Path: path, Sites: len(parsed.Sites), Curves: curves})
	}
}

// parseStore decodes a store file's bytes, checking in order its JSON, its
// schema version, the machine fingerprint and the nested model set. A
// fingerprint from another machine fails only when strict; otherwise it is
// reported through FingerprintMatches. The error text names the failed check.
func parseStore(data []byte, strict bool) (StoreData, error) {
	var doc storeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return StoreData{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if doc.Schema != storeSchema {
		return StoreData{}, fmt.Errorf("unknown schema version %d (want %d)", doc.Schema, storeSchema)
	}
	here := perfmodel.CollectFingerprint()
	out := StoreData{Sites: doc.Sites, Fingerprint: doc.Fingerprint, FingerprintMatches: doc.Fingerprint.Matches(here)}
	if strict && !out.FingerprintMatches {
		return StoreData{}, fmt.Errorf("fingerprint mismatch: store %s, machine %s", doc.Fingerprint, here)
	}
	if len(doc.Models) > 0 {
		m, err := perfmodel.ReadJSON(bytes.NewReader(doc.Models))
		if err != nil {
			return StoreData{}, fmt.Errorf("invalid model set: %w", err)
		}
		out.Models = m
	}
	return out, nil
}

// reject reports one discarded store file. The Store keeps its empty state.
func (s *Store) reject(reason string) {
	s.metrics.StoreRejects.Add(1)
	if s.sink != nil {
		s.sink.Emit(obs.StoreRejected{Path: s.Path(), Reason: reason})
	}
}

// WarmLookup implements core.WarmStarter: it reports the persisted decision
// for an allocation context, ok=false for unknown sites.
func (s *Store) WarmLookup(ctx string) (core.WarmDecision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	site, ok := s.sites[ctx]
	if !ok {
		return core.WarmDecision{}, false
	}
	return core.WarmDecision{Variant: site.Variant, Profile: site.Profile}, true
}

// Models returns the refined model set loaded from or recorded into the
// store, nil when only analytic defaults are available.
func (s *Store) Models() *perfmodel.Models {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.models
}

// SiteCount returns the number of persisted site decisions.
func (s *Store) SiteCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sites)
}

// RecordSites merges the given snapshots over the persisted decisions,
// keyed by site name. Call Save to write them out.
func (s *Store) RecordSites(snaps []core.SiteSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, snap := range snaps {
		if _, seen := s.sites[snap.Name]; !seen {
			s.order = append(s.order, snap.Name)
		}
		s.sites[snap.Name] = snap
	}
}

// SetModels records the refined model set to persist with the next Save.
func (s *Store) SetModels(m *perfmodel.Models) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models = m
}

// Save writes the store file atomically (temp file + fsync + rename — the
// same crash-safety discipline as perfmodel.SaveFile), stamped with the
// current machine fingerprint. The store directory is created if needed.
func (s *Store) Save() error {
	s.mu.Lock()
	doc := storeDoc{
		Schema:      storeSchema,
		Fingerprint: perfmodel.CollectFingerprint(),
		Sites:       make([]core.SiteSnapshot, 0, len(s.sites)),
	}
	for _, name := range s.order {
		doc.Sites = append(doc.Sites, s.sites[name])
	}
	curves := 0
	if s.models != nil {
		var buf bytes.Buffer
		if err := s.models.WriteJSON(&buf); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("tuner: encoding models: %w", err)
		}
		doc.Models = buf.Bytes()
		curves = s.models.Len()
	}
	s.mu.Unlock()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("tuner: creating store dir: %w", err)
	}
	path := s.Path()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("tuner: encoding store: %w", err)
	}
	if err := perfmodel.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return fmt.Errorf("tuner: writing store: %w", err)
	}
	s.metrics.StoreSaves.Add(1)
	if s.sink != nil {
		s.sink.Emit(obs.StoreSaved{Path: path, Sites: len(doc.Sites), Curves: curves})
	}
	return nil
}
