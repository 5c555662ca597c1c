package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rewrite"
)

// twoSites has one default-constructor site, which both adaptive modes
// rewrite, and one NewLinkedList site, which only -all rewrites.
const twoSites = `package demo

import "repro/internal/collections"

func build() int {
	l := collections.NewArrayList[int]()
	x := collections.NewLinkedList[int]()
	l.Add(1)
	x.Add(2)
	return l.Len() + x.Len()
}
`

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// inTree writes files into a fresh directory and makes it the working
// directory, so site names and -o paths are relative to it.
func inTree(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestPinnedModeMatchesCommittedFixture runs the search-and-pin mode on the
// committed optdemo store. Its stdout is the front table, the result JSON and
// the patch, each byte for byte as committed under results/optdemo, and the
// -json file holds the same JSON.
func TestPinnedModeMatchesCommittedFixture(t *testing.T) {
	t.Chdir("../..") // site names and the store's profiles are relative to the repository root
	jsonPath := filepath.Join(t.TempDir(), "front.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-store", "results/optdemo/collectionswitch-store.json",
		"-src", "examples/optdemo", "-json", jsonPath, "-q"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	front := readFile(t, "results/optdemo/pareto_front.json")
	patch := readFile(t, "results/optdemo/workload.go.patch")
	if want := readFile(t, "results/optdemo/pareto_front.txt") + front + patch; stdout.String() != want {
		t.Errorf("stdout differs from pareto_front.txt + pareto_front.json + workload.go.patch:\n%s", stdout.String())
	}
	if got := readFile(t, jsonPath); got != front {
		t.Errorf("-json file differs from pareto_front.json:\n%s", got)
	}
}

// TestAdaptiveWriteIsAllOrNothing: one file that does not parse fails the
// whole run, and the file that rewrote cleanly is not written either.
func TestAdaptiveWriteIsAllOrNothing(t *testing.T) {
	files := map[string]string{
		"a.go": twoSites,
		"b.go": "package demo\n\nfunc broken( {\n",
	}
	inTree(t, files)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-w", "."}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "b.go") || !strings.Contains(err.Error(), "nothing written") {
		t.Fatalf("run = %v, want a failure naming b.go", err)
	}
	for name, want := range files {
		if got := readFile(t, name); got != want {
			t.Errorf("%s changed although the run failed:\n%s", name, got)
		}
	}
}

// TestAdaptiveOutputTreeMatchesRewriter: -o writes what Rewriter.Rewrite
// returns in the paper's defaults-only mode, and -all also rewrites the
// NewLinkedList site that mode skips.
func TestAdaptiveOutputTreeMatchesRewriter(t *testing.T) {
	inTree(t, map[string]string{"app/a.go": twoSites})
	for _, tc := range []struct {
		flags []string
		cfg   rewrite.Config
		sites int
	}{
		{nil, rewrite.Config{DefaultsOnly: true}, 1},
		{[]string{"-all"}, rewrite.Config{}, 2},
	} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		if err := run(append(tc.flags, "-o", out, "app/..."), &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\n%s", tc.flags, err, stderr.String())
		}
		want, res, err := rewrite.NewRewriter().Rewrite([]byte(twoSites), "app/a.go", tc.cfg)
		if err != nil || len(res.Sites) != tc.sites {
			t.Fatalf("Rewrite(%+v) = %d sites, %v; want %d", tc.cfg, len(res.Sites), err, tc.sites)
		}
		got := readFile(t, filepath.Join(out, "app/a.go"))
		if got != string(want) {
			t.Errorf("%v: -o tree differs from Rewrite:\n%s", tc.flags, got)
		}
		if linked := strings.Contains(got, `core.WithDefaultVariant("list/linked")`); linked != (tc.sites == 2) {
			t.Errorf("%v: NewLinkedList site rewritten = %v", tc.flags, linked)
		}
		if stdout.Len() != 0 || readFile(t, "app/a.go") != twoSites {
			t.Errorf("%v: -o also printed a diff or changed the source", tc.flags)
		}
	}
}

// TestListPrintsSitesAndWritesNothing: -list prints one line per site and
// stops before any rewrite, even with -w.
func TestListPrintsSitesAndWritesNothing(t *testing.T) {
	inTree(t, map[string]string{"a.go": twoSites})
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list", "-w", "."}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	want := "a.go:6:7: collections.NewArrayList[int]() (list[int] -> list/array)\n" +
		"a.go:7:7: collections.NewLinkedList[int]() (list[int] -> list/linked)\n"
	if stdout.String() != want {
		t.Errorf("-list printed:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if readFile(t, "a.go") != twoSites {
		t.Error("-list rewrote the file")
	}
}

func TestUnifiedDiff(t *testing.T) {
	// lines renders lines from..to of a 20-line file whose lines are their
	// numbers, with each line in change replaced; prefix marks them as
	// hunk context when it is " ".
	lines := func(prefix string, from, to int, change map[int]string) string {
		var b strings.Builder
		for i := from; i <= to; i++ {
			if s, ok := change[i]; ok {
				b.WriteString(prefix + s + "\n")
			} else {
				fmt.Fprintf(&b, "%s%d\n", prefix, i)
			}
		}
		return b.String()
	}
	a := lines("", 1, 20, nil)
	const head = "--- a\n+++ b\n"
	for _, tc := range []struct {
		name   string
		change map[int]string
		want   string
	}{
		{"equal", nil, ""},
		{"first line", map[int]string{1: "X"},
			head + "@@ -1,4 +1,4 @@\n-1\n+X\n" + lines(" ", 2, 4, nil)},
		{"last line", map[int]string{20: "X"},
			head + "@@ -17,4 +17,4 @@\n" + lines(" ", 17, 19, nil) + "-20\n+X\n"},
		{"6 lines apart: one hunk", map[int]string{5: "X", 12: "Y"},
			head + "@@ -2,14 +2,14 @@\n" + lines(" ", 2, 4, nil) + "-5\n+X\n" +
				lines(" ", 6, 11, nil) + "-12\n+Y\n" + lines(" ", 13, 15, nil)},
		{"7 lines apart: two hunks", map[int]string{5: "X", 13: "Y"},
			head + "@@ -2,7 +2,7 @@\n" + lines(" ", 2, 4, nil) + "-5\n+X\n" + lines(" ", 6, 8, nil) +
				"@@ -10,7 +10,7 @@\n" + lines(" ", 10, 12, nil) + "-13\n+Y\n" + lines(" ", 14, 16, nil)},
	} {
		if got := unifiedDiff("a", "b", []byte(a), []byte(lines("", 1, 20, tc.change))); got != tc.want {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
