package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/polyfit"
)

func demoSnapshot() core.SiteSnapshot {
	return core.SiteSnapshot{
		Name:        "demo:list",
		Abstraction: "list",
		Variant:     collections.HashArrayListID,
		Candidates:  []collections.VariantID{collections.ArrayListID, collections.HashArrayListID},
		Rounds:      2,
		Profile:     core.WorkloadProfile{Adds: 500, Contains: 500, Instances: 10, MeanSize: 500, MaxSize: 500},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	s := Open(dir, col, reg)
	if got := len(col.Events()); got != 0 {
		t.Fatalf("cold open on empty dir emitted %d events, want 0", got)
	}
	s.RecordSites([]core.SiteSnapshot{demoSnapshot()})
	m := perfmodel.NewModels()
	m.Set(collections.ArrayListID, perfmodel.OpContains, perfmodel.DimTimeNS, polyfit.Poly{Coeffs: []float64{0, 3}})
	m.SetFingerprint(perfmodel.CollectFingerprint())
	s.SetModels(m)
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if got := reg.StoreSaves.Load(); got != 1 {
		t.Errorf("StoreSaves = %d, want 1", got)
	}

	col2 := obs.NewCollector()
	reg2 := obs.NewRegistry()
	s2 := Open(dir, col2, reg2)
	if got := reg2.StoreLoads.Load(); got != 1 {
		t.Fatalf("StoreLoads = %d, want 1 (events: %v)", got, col2.Events())
	}
	dec, ok := s2.WarmLookup("demo:list")
	if !ok {
		t.Fatal("persisted site not found after reload")
	}
	if dec.Variant != collections.HashArrayListID || dec.Profile.Instances != 10 {
		t.Errorf("WarmLookup = %+v", dec)
	}
	if _, ok := s2.WarmLookup("unknown:site"); ok {
		t.Error("WarmLookup invented a decision for an unknown site")
	}
	lm := s2.Models()
	if lm == nil {
		t.Fatal("persisted models not reloaded")
	}
	if got := lm.Cost(collections.ArrayListID, perfmodel.OpContains, perfmodel.DimTimeNS, 10); got != 30 {
		t.Errorf("reloaded model Cost = %g, want 30", got)
	}
	if _, ok := lm.MeasuredOn(); !ok {
		t.Error("reloaded models lost their fingerprint")
	}
}

// rejected opens a store against a (mutated) file and asserts the wholesale
// rejection contract: empty state, exactly one StoreRejected event carrying
// wantReason, exactly one StoreRejects count, no panic.
func rejected(t *testing.T, dir, wantReason string) {
	t.Helper()
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	s := Open(dir, col, reg)
	if got := s.SiteCount(); got != 0 {
		t.Errorf("rejected store kept %d sites, want 0 (no partial state)", got)
	}
	if s.Models() != nil {
		t.Error("rejected store kept models")
	}
	if _, ok := s.WarmLookup("demo:list"); ok {
		t.Error("rejected store still answers warm lookups")
	}
	if got := reg.StoreRejects.Load(); got != 1 {
		t.Errorf("StoreRejects = %d, want 1", got)
	}
	events := col.Events()
	if len(events) != 1 {
		t.Fatalf("rejection emitted %d events, want exactly 1: %v", len(events), events)
	}
	rej, ok := events[0].(obs.StoreRejected)
	if !ok {
		t.Fatalf("event = %T, want StoreRejected", events[0])
	}
	if !strings.Contains(rej.Reason, wantReason) {
		t.Errorf("rejection reason = %q, want substring %q", rej.Reason, wantReason)
	}
}

// savedStore writes a valid store file into a fresh temp dir.
func savedStore(t *testing.T) *Store {
	t.Helper()
	s := Open(t.TempDir(), nil, nil)
	s.RecordSites([]core.SiteSnapshot{demoSnapshot()})
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRejectsTruncatedJSON(t *testing.T) {
	s := savedStore(t)
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rejected(t, s.dir, "invalid JSON")
}

func TestStoreRejectsUnknownSchema(t *testing.T) {
	s := savedStore(t)
	mutateStoreFile(t, s.Path(), func(doc map[string]any) {
		doc["schema"] = 99
	})
	rejected(t, s.dir, "unknown schema version 99")
}

func TestStoreRejectsFingerprintMismatch(t *testing.T) {
	s := savedStore(t)
	mutateStoreFile(t, s.Path(), func(doc map[string]any) {
		fp := doc["fingerprint"].(map[string]any)
		fp["cpu_model"] = "some other machine"
	})
	rejected(t, s.dir, "fingerprint mismatch")
}

func TestStoreRejectsInvalidNestedModels(t *testing.T) {
	s := savedStore(t)
	mutateStoreFile(t, s.Path(), func(doc map[string]any) {
		doc["models"] = map[string]any{"curves": []any{
			map[string]any{"variant": "x", "op": "contains", "dimension": "time-ns", "pieces": []any{}},
		}}
	})
	rejected(t, s.dir, "invalid model set")
}

// mutateStoreFile round-trips the store file through a generic JSON map so
// corruption tests can doctor individual fields.
func mutateStoreFile(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadStoreTolerantOfFingerprintMismatch(t *testing.T) {
	s := savedStore(t)
	m := perfmodel.NewModels()
	m.Set(collections.ArrayListID, perfmodel.OpContains, perfmodel.DimTimeNS, polyfit.Poly{Coeffs: []float64{0, 3}})
	s.SetModels(m)
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	// Directory and file paths both resolve.
	forDir, err := ReadStore(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	forFile, err := ReadStore(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(forDir.Sites) != 1 || len(forFile.Sites) != 1 {
		t.Fatalf("sites = %d / %d, want 1", len(forDir.Sites), len(forFile.Sites))
	}
	if !forDir.FingerprintMatches {
		t.Error("same-machine store reported a fingerprint mismatch")
	}
	if forDir.Models == nil || forDir.Models.Cost(collections.ArrayListID, perfmodel.OpContains, perfmodel.DimTimeNS, 10) != 30 {
		t.Error("models not decoded")
	}

	// A foreign fingerprint is reported, not rejected — offline search over
	// a store committed from another machine is deliberate.
	mutateStoreFile(t, s.Path(), func(doc map[string]any) {
		fp := doc["fingerprint"].(map[string]any)
		fp["cpu_model"] = "some other machine"
	})
	foreign, err := ReadStore(s.dir)
	if err != nil {
		t.Fatalf("foreign-fingerprint store rejected by ReadStore: %v", err)
	}
	if foreign.FingerprintMatches {
		t.Error("foreign store claimed a fingerprint match")
	}
	if len(foreign.Sites) != 1 || foreign.Sites[0].Name != "demo:list" {
		t.Errorf("foreign store sites = %+v", foreign.Sites)
	}

	// Schema and decode failures still fail.
	mutateStoreFile(t, s.Path(), func(doc map[string]any) { doc["schema"] = 99 })
	if _, err := ReadStore(s.dir); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadStore(t.TempDir()); err == nil {
		t.Error("missing store file accepted")
	}
}

// FuzzReadStore feeds arbitrary bytes to the store decoder through both of
// its readers. ReadStore must return an error or data, never panic, and Open
// must load exactly the files ReadStore accepts as measured on this machine
// and reject every other one.
func FuzzReadStore(f *testing.F) {
	s := Open(f.TempDir(), nil, nil)
	s.RecordSites([]core.SiteSnapshot{demoSnapshot()})
	m := perfmodel.NewModels()
	m.Set(collections.ArrayListID, perfmodel.OpContains, perfmodel.DimTimeNS, polyfit.Poly{Coeffs: []float64{0, 3}})
	s.SetModels(m)
	if err := s.Save(); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(s.Path())
	if err != nil {
		f.Fatal(err)
	}
	// Each faulty seed keeps this machine's fingerprint, so Open reaches
	// the check the seed fails.
	withField := func(key string, v any) []byte {
		var doc map[string]any
		if err := json.Unmarshal(saved, &doc); err != nil {
			f.Fatal(err)
		}
		doc[key] = v
		out, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add(withField("schema", 99))
	f.Add(withField("models", map[string]any{"curves": []any{
		map[string]any{"variant": "x", "op": "contains", "dimension": "time-ns", "pieces": []any{}},
	}}))
	f.Add(withField("models", "garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, StoreFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStore(dir)
		reg := obs.NewRegistry()
		Open(dir, nil, reg)
		wantLoad := err == nil && got.FingerprintMatches
		if loads, rejects := reg.StoreLoads.Load(), reg.StoreRejects.Load(); wantLoad != (loads == 1) || loads+rejects != 1 {
			t.Fatalf("ReadStore (err %v, fingerprint match %v) and Open (%d loads, %d rejects) disagree", err, got.FingerprintMatches, loads, rejects)
		}
	})
}
