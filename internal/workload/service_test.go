package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestParseServicePhases(t *testing.T) {
	phases, err := ParseServicePhases("write:5s, read:250ms ,scan:1m")
	if err != nil {
		t.Fatalf("ParseServicePhases: %v", err)
	}
	want := []struct {
		name string
		d    time.Duration
	}{{"write", 5 * time.Second}, {"read", 250 * time.Millisecond}, {"scan", time.Minute}}
	if len(phases) != len(want) {
		t.Fatalf("got %d phases, want %d", len(phases), len(want))
	}
	for i, w := range want {
		if phases[i].Name != w.name || phases[i].Duration != w.d {
			t.Errorf("phase %d = %s:%s, want %s:%s", i, phases[i].Name, phases[i].Duration, w.name, w.d)
		}
	}
}

func TestParseServicePhasesRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"write",          // no duration
		"write:xyz",      // unparseable duration
		"write:0s",       // non-positive
		"write:-1s",      // negative
		"tetris:5s",      // unknown mix
		"write:5s,,",     // empty segment
		"write:5s,bad:2", // bad trailing segment
	} {
		if _, err := ParseServicePhases(spec); err == nil {
			t.Errorf("ParseServicePhases(%q) accepted a bad spec", spec)
		}
	}
}

func TestServiceMixPickRespectsWeights(t *testing.T) {
	mix, ok := MixByName("scan")
	if !ok {
		t.Fatal("scan mix missing")
	}
	r := rand.New(rand.NewSource(7))
	counts := map[ServiceOp]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[mix.Pick(r)]++
	}
	// scan mix: range scans dominate by construction.
	if counts[OpRangeScan] < n/2 {
		t.Errorf("scan mix produced only %d/%d range scans", counts[OpRangeScan], n)
	}
	// Every weighted op appears; the zero-weight tail does not need to.
	for op, w := range mix.Weights {
		if w > 0 && counts[ServiceOp(op)] == 0 {
			t.Errorf("op %s weighted %d never drawn", ServiceOp(op), w)
		}
	}
	// A zero mix still generates uniform traffic rather than panicking.
	var zero ServiceMix
	seen := map[ServiceOp]bool{}
	for i := 0; i < 1000; i++ {
		seen[zero.Pick(r)] = true
	}
	if len(seen) != int(NumServiceOps) {
		t.Errorf("zero mix covered %d/%d ops", len(seen), NumServiceOps)
	}
}

// FuzzParseServicePhases feeds arbitrary specs to ParseServicePhases. It
// must return an error or phases, never panic, and every schedule it
// accepts has one phase per comma-separated part, each with a positive
// duration and a known mix under its lower-cased, trimmed name.
func FuzzParseServicePhases(f *testing.F) {
	for _, seed := range []string{
		"write:5s, read:250ms ,scan:1m",
		" MIXED : 1h30m ",
		"read:1ns,read:1ns",
		"write:0s",
		"write:-1s",
		"tetris:5s",
		"write:5s,,",
		"scan:1e3s",
		"read:9223372036854775807ns",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParseServicePhases(spec)
		if err != nil {
			return
		}
		if parts := strings.Count(spec, ",") + 1; len(phases) != parts {
			t.Fatalf("%q: %d phases for %d parts", spec, len(phases), parts)
		}
		for i, p := range phases {
			if p.Duration <= 0 {
				t.Fatalf("%q: phase %d lasts %v", spec, i, p.Duration)
			}
			mix, ok := MixByName(p.Name)
			if !ok || mix != p.Mix || p.Name != strings.ToLower(strings.TrimSpace(p.Name)) {
				t.Fatalf("%q: phase %d is %q (known mix: %v, mix matches: %v)", spec, i, p.Name, ok, mix == p.Mix)
			}
		}
	})
}
