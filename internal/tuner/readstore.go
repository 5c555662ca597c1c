package tuner

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// StoreData is the decoded content of a store file, for offline consumers.
type StoreData struct {
	// Path is the store file actually read.
	Path string
	// Sites are the persisted per-site decisions, file order.
	Sites []core.SiteSnapshot
	// Models is the refined model set, nil when the store carries none.
	Models *perfmodel.Models
	// Fingerprint identifies the machine the state was measured on.
	Fingerprint perfmodel.Fingerprint
	// FingerprintMatches reports whether that machine is this one.
	FingerprintMatches bool
}

// ReadStore reads and decodes a store file for offline analysis (cmd/collopt
// and similar tools). path may be the store file itself or the directory
// containing it. Unlike Open — the warm-start surface, which must never adopt
// state measured elsewhere — ReadStore tolerates a machine-fingerprint
// mismatch and merely reports it, because an offline search over a store
// committed from another machine is a deliberate act; schema and decode
// errors still fail. The result is a detached copy sharing nothing with any
// live Store.
func ReadStore(path string) (StoreData, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, StoreFileName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return StoreData{Path: path}, fmt.Errorf("tuner: reading store: %w", err)
	}
	out, err := parseStore(data, false)
	out.Path = path
	if err != nil {
		return out, fmt.Errorf("tuner: store %s: %w", path, err)
	}
	return out, nil
}
