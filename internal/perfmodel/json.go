package perfmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// The JSON form lets cmd/perfmodel persist machine-built models and the
// framework load them later, mirroring the paper's separation between the
// offline benchmarking phase and the runtime library.

// modelsSchema is the version written by WriteJSON. Version history:
//
//	0 (absent) — original format: curves of {upTo, coeffs} pieces.
//	2          — pieces may carry a "var" prediction-variance polynomial.
//
// ReadJSON accepts any version ≤ modelsSchema: the additions are purely
// optional fields, so older files decode as curves without uncertainty.
const modelsSchema = 2

// jsonPiece is one segment of a serialized curve. UpTo is nil for the
// final, unbounded segment (JSON has no +Inf). Var, when present, is the
// prediction-variance polynomial of the segment (ascending coefficients,
// like Coeffs).
type jsonPiece struct {
	UpTo   *float64  `json:"upTo,omitempty"`
	Coeffs []float64 `json:"coeffs"`
	Var    []float64 `json:"var,omitempty"`
}

// jsonCurve is the serialized form of one fitted curve.
type jsonCurve struct {
	Variant   string      `json:"variant"`
	Op        string      `json:"op"`
	Dimension string      `json:"dimension"`
	Pieces    []jsonPiece `json:"pieces"`
}

type jsonModels struct {
	// Schema is the format version (see modelsSchema). Zero or absent means
	// the original, pre-versioning format.
	Schema int `json:"schema,omitempty"`
	// Fingerprint identifies the machine a measured model set was built
	// on; omitted for machine-independent (analytic) models. Files written
	// before fingerprints existed load as fingerprint-free.
	Fingerprint *Fingerprint `json:"fingerprint,omitempty"`
	Curves      []jsonCurve  `json:"curves"`
}

// WriteJSON serializes the models.
func (m *Models) WriteJSON(w io.Writer) error {
	doc := jsonModels{Schema: modelsSchema, Fingerprint: m.fp, Curves: make([]jsonCurve, 0, m.Len())}
	for k, cv := range m.all() {
		jc := jsonCurve{
			Variant:   string(k.Variant),
			Op:        string(k.Op),
			Dimension: string(k.Dim),
		}
		for _, p := range cv.pieces {
			jp := jsonPiece{Coeffs: p.poly.Coeffs, Var: p.vp.Coeffs}
			if !math.IsInf(p.upTo, 1) {
				u := p.upTo
				jp.UpTo = &u
			}
			jc.Pieces = append(jc.Pieces, jp)
		}
		doc.Curves = append(doc.Curves, jc)
	}
	sort.Slice(doc.Curves, func(i, j int) bool {
		a, b := doc.Curves[i], doc.Curves[j]
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Dimension < b.Dimension
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON deserializes models previously written with WriteJSON.
func ReadJSON(r io.Reader) (*Models, error) {
	var doc jsonModels
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("perfmodel: decoding models: %w", err)
	}
	if doc.Schema > modelsSchema {
		return nil, fmt.Errorf("perfmodel: model schema %d is newer than supported %d", doc.Schema, modelsSchema)
	}
	m := NewModels()
	if doc.Fingerprint != nil {
		m.fp = doc.Fingerprint
	}
	for _, c := range doc.Curves {
		if len(c.Pieces) == 0 {
			return nil, fmt.Errorf("perfmodel: curve %s/%s/%s has no pieces", c.Variant, c.Op, c.Dimension)
		}
		cv := curve{}
		for i, jp := range c.Pieces {
			if len(jp.Coeffs) == 0 {
				return nil, fmt.Errorf("perfmodel: curve %s/%s/%s piece %d has no coefficients", c.Variant, c.Op, c.Dimension, i)
			}
			upTo := math.Inf(1)
			if jp.UpTo != nil {
				upTo = *jp.UpTo
			}
			cv.pieces = append(cv.pieces, piece{
				upTo: upTo,
				poly: polyfit.Poly{Coeffs: jp.Coeffs},
				vp:   polyfit.Poly{Coeffs: jp.Var},
			})
		}
		m.put(key{collections.VariantID(c.Variant), Op(c.Op), Dimension(c.Dimension)}, cv)
	}
	return m, nil
}

// SaveFile writes the models to path crash-safely: the JSON is written to a
// temporary file in the target directory, fsynced, and renamed into place,
// so a crash mid-write leaves either the previous file or the complete new
// one — never a torn half-model set. (A truncated file would anyway be
// rejected by LoadFile's JSON decode rather than yield partial models.)
func (m *Models) SaveFile(path string) error {
	return AtomicWriteFile(path, m.WriteJSON)
}

// AtomicWriteFile streams write's output into a temp file next to path,
// fsyncs, and renames over path — the crash-safety discipline shared by
// SaveFile and the warm-start store (internal/tuner). The temp file is
// removed on any failure.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads models from path.
func LoadFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
