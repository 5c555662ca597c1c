package perfmodel

import (
	"bytes"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to the model decoder. It must return
// an error or a model set, never panic, and a model set it decodes must
// re-encode stably: WriteJSON∘ReadJSON is idempotent after its first
// application.
func FuzzReadJSON(f *testing.F) {
	var def bytes.Buffer
	if err := Default().WriteJSON(&def); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		def.String(),
		// Schema absent: the original format.
		`{"curves": [{"variant": "v", "op": "contains", "dimension": "time-ns",
			"pieces": [{"upTo": 16, "coeffs": [1, 2]}, {"coeffs": [3]}]}]}`,
		// Schema 2 with prediction-variance polynomials and a fingerprint.
		`{"schema": 2, "fingerprint": {"goos": "linux", "goarch": "amd64", "cpu_model": "x", "gomaxprocs": 2, "go_version": "go1.24"},
			"curves": [{"variant": "set/array", "op": "populate", "dimension": "alloc-b",
			"pieces": [{"upTo": 40, "coeffs": [10, -0.5, 1e-3], "var": [4, 0, 1e-6]}, {"coeffs": [-0], "var": [2]}]}]}`,
		// The cases of TestJSONRejectsGarbage.
		`{nope`,
		`{"curves":[{"variant":"x","op":"y","dimension":"z","coeffs":[]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := m.WriteJSON(&once); err != nil {
			t.Fatalf("encoding a decoded model set: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding WriteJSON's own output: %v\n%s", err, once.Bytes())
		}
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatalf("encoding the re-decoded model set: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
