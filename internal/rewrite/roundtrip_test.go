package rewrite

// Round-trip coverage: rewritten output must not merely re-parse — it must
// compile against the real module and behave identically at runtime. The
// tests write rewritten fixtures into a dot-prefixed scratch directory under
// the repository root (dot names are invisible to ./... package walks) and
// build them with the go toolchain via an explicit file list, which keeps
// the fixture inside module "repro" so its internal-package imports stay
// legal.

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/collections"
)

const roundtripSrc = `package main

import (
	"fmt"

	"repro/internal/collections"
)

// The collections built in uniq, push and main's point set have type
// arguments that only exist inside a function, which a package-level
// context cannot name: the rewrite must leave these three sites alone.
func uniq[T comparable](xs []T) int {
	s := collections.NewHashSet[T]()
	for _, x := range xs {
		s.Add(x)
	}
	return s.Len()
}

type stack[E comparable] struct{ items collections.List[E] }

func (s *stack[E]) push(e E) {
	if s.items == nil {
		s.items = collections.NewArrayList[E]()
	}
	s.items.Add(e)
}

func main() {
	l := collections.NewArrayList[int]()
	for i := 0; i < 5; i++ {
		l.Add(i)
	}
	s := collections.NewHashSet[string]()
	s.Add("x")
	s.Add("x")
	m := collections.NewHashMap[string, int]()
	m.Put("k", 7)
	v, _ := m.Get("k")
	fmt.Println(l.Len(), s.Len(), v)

	type point struct{ x, y int }
	ps := collections.NewHashSet[point]()
	ps.Add(point{1, 2})
	ps.Add(point{1, 2})
	var st stack[string]
	st.push("a")
	st.push("b")
	st.push("c")
	fmt.Println(uniq([]int{1, 1, 2, 3, 3}), ps.Len(), st.items.Len())
}
`

const roundtripWant = "5 1 7\n3 1 3\n"

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // internal/rewrite -> repo root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// buildAndRun compiles the rewritten source inside the module and returns
// the program's combined output.
func buildAndRun(t *testing.T, src []byte) string {
	t.Helper()
	root := repoRoot(t)
	dir, err := os.MkdirTemp(root, ".rewrite-roundtrip-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	file := filepath.Join(dir, "main.go")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "demo")
	build := exec.Command("go", "build", "-o", bin, file)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s\nrewritten source:\n%s", err, out, src)
	}
	run := exec.Command(bin)
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("rewritten program failed: %v\n%s", err, out)
	}
	return string(out)
}

func TestRoundTripAdaptiveRewriteBuildsAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds with the go toolchain")
	}
	out, res, err := NewRewriter().Rewrite([]byte(roundtripSrc), "main.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 3 {
		t.Fatalf("got %d sites, want 3", len(res.Sites))
	}
	if got := buildAndRun(t, out); got != roundtripWant {
		t.Fatalf("adaptive rewrite changed behavior: got %q, want %q", got, roundtripWant)
	}
}

func TestRoundTripPinnedRewriteBuildsAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds with the go toolchain")
	}
	pins := map[collections.Abstraction]collections.VariantID{
		collections.ListAbstraction: collections.HashArrayListID,
		collections.SetAbstraction:  collections.OpenHashSetBalID,
		collections.MapAbstraction:  collections.ArrayMapID,
	}
	out, res, err := NewRewriter().Rewrite([]byte(roundtripSrc), "main.go", Config{
		Pin: func(s Site) (collections.VariantID, bool) {
			v, ok := pins[s.Kind]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 3 {
		t.Fatalf("got %d pinned sites, want 3", len(res.Sites))
	}
	if got := buildAndRun(t, out); got != roundtripWant {
		t.Fatalf("pinned rewrite changed behavior: got %q, want %q", got, roundtripWant)
	}
}
