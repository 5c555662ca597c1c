package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
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

// TestUnifiedDiffLongFileAllocatesLittle: diffing a 4000-line file with one
// changed line, and a Go file of 4001 lines with the adaptive rewrite of its
// one site, allocates under 1 MB; an LCS table over every pair of lines would
// take about 128 MB for either. The rewrite inserts an import near the top
// and appends its contexts at the end, so the two files share no suffix.
func TestUnifiedDiffLongFileAllocatesLittle(t *testing.T) {
	var numbers, goFile strings.Builder
	for i := 1; i <= 4000; i++ {
		fmt.Fprintf(&numbers, "%d\n", i)
	}
	goFile.WriteString(twoSites)
	for i := 0; strings.Count(goFile.String(), "\n") < 4000; i++ {
		fmt.Fprintf(&goFile, "\nfunc f%d() int { return %d }\n", i, i)
	}
	rewritten, res, err := rewrite.NewRewriter().Rewrite([]byte(goFile.String()), "long.go", rewrite.Config{DefaultsOnly: true})
	if err != nil || len(res.Sites) != 1 {
		t.Fatalf("Rewrite = %d sites, %v; want 1", len(res.Sites), err)
	}
	for _, tc := range []struct {
		name   string
		a, b   []byte
		hunks  []string
		suffix string
	}{
		{"one changed line", []byte(numbers.String()), []byte(strings.Replace(numbers.String(), "\n2000\n", "\nX\n", 1)),
			[]string{"@@ -1997,7 +1997,7 @@"}, " 1997\n 1998\n 1999\n-2000\n+X\n 2001\n 2002\n 2003\n"},
		{"adaptive rewrite", []byte(goFile.String()), rewritten,
			[]string{"@@ -1,9 +1,10 @@", "@@ -3999,3 +4000,12 @@"}, "+\t\tcore.WithDefaultVariant(\"list/array\"))\n+)\n"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := unifiedDiff("a", "b", tc.a, tc.b)
		runtime.ReadMemStats(&after)
		var hunks []string
		for _, l := range strings.Split(got, "\n") {
			if strings.HasPrefix(l, "@@ ") {
				hunks = append(hunks, l)
			}
		}
		if !slices.Equal(hunks, tc.hunks) || !strings.HasSuffix(got, tc.suffix) {
			t.Errorf("%s: hunks %q, want %q, ending in %q:\n%s", tc.name, hunks, tc.hunks, tc.suffix, got)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: diffing %d lines allocated %d bytes, want under 1 MB", tc.name, bytes.Count(tc.a, []byte("\n")), n)
		}
	}
}

// TestEditScriptMatchesLCSTableWalk: on random short inputs over a few
// distinct lines, where many edit scripts are equally short, editScript
// picks the one the walk over a full LCS table picks.
func TestEditScriptMatchesLCSTableWalk(t *testing.T) {
	// tableWalk keeps a shared line, else deletes when the LCS of the rest
	// stays as long, else inserts.
	tableWalk := func(al, bl []string) []edit {
		n, m := len(al), len(bl)
		lcs := make([][]int, n+1)
		for i := range lcs {
			lcs[i] = make([]int, m+1)
		}
		for i := n - 1; i >= 0; i-- {
			for j := m - 1; j >= 0; j-- {
				if al[i] == bl[j] {
					lcs[i][j] = lcs[i+1][j+1] + 1
				} else {
					lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
				}
			}
		}
		var edits []edit
		for i, j := 0, 0; i < n || j < m; {
			switch {
			case i < n && j < m && al[i] == bl[j]:
				edits = append(edits, edit{' ', al[i]})
				i, j = i+1, j+1
			case i < n && (j == m || lcs[i+1][j] >= lcs[i][j+1]):
				edits = append(edits, edit{'-', al[i]})
				i++
			default:
				edits = append(edits, edit{'+', bl[j]})
				j++
			}
		}
		return edits
	}
	r := rand.New(rand.NewPCG(1, 2))
	lines := func(distinct int) []string {
		s := make([]string, r.IntN(13))
		for i := range s {
			s[i] = strconv.Itoa(r.IntN(distinct))
		}
		return s
	}
	for range 20000 {
		distinct := 1 + r.IntN(4)
		al, bl := lines(distinct), lines(distinct)
		want := tableWalk(al, bl)
		if slices.Equal(al, bl) {
			want = nil
		}
		if got := editScript(al, bl); !slices.Equal(got, want) {
			t.Fatalf("editScript(%q, %q) = %q, want %q", al, bl, got, want)
		}
	}
}

// TestModeFlagsRejected: a flag the selected mode would ignore fails the
// run, naming the flag, before anything is written; -q stays valid in both
// modes.
func TestModeFlagsRejected(t *testing.T) {
	inTree(t, map[string]string{"a.go": twoSites})
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-q", "-json", "F", "-events", "E", "-objective", "bogus", "."}, "-events, -json, -objective: only read with -store"},
		{[]string{"-seed", "2", "-pop", "8", "-gens", "1", "-pick", "0", "-top", "1", "."}, "-gens, -pick, -pop, -seed, -top: only read with -store"},
		{[]string{"-store", "S", "-all", "-q", "."}, "-all: only read without -store"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err == nil || err.Error() != tc.want {
			t.Errorf("run %v = %v, want %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("run %v printed %q, %q", tc.args, stdout.String(), stderr.String())
		}
	}
	for _, name := range []string{"F", "E"} {
		if _, err := os.Stat(name); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s exists after a rejected run (stat: %v)", name, err)
		}
	}
	if readFile(t, "a.go") != twoSites {
		t.Error("a rejected run rewrote a.go")
	}
}

// TestSourcesNamedTwoWaysScanOnce: a tree named once by absolute path and
// once relative to the working directory is scanned once, under its
// relative name.
func TestSourcesNamedTwoWaysScanOnce(t *testing.T) {
	t.Chdir("../..")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list", filepath.Join(wd, "examples/optdemo") + "/...", "examples/optdemo"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("-list printed %d lines, want optdemo's 3 sites:\n%s", len(lines), stdout.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "examples/optdemo/workload.go:") {
			t.Errorf("site listed as %q, want it relative to the working directory", l)
		}
	}
}

// TestSourceOutsideWorkingDirectory: a tree outside the working directory
// keeps the name its argument gives it, relative or absolute, in listings
// and in the context names the rewrite generates; named both ways it is
// scanned once. -o refuses to mirror it through a path that climbs out of
// the output directory, and writes nothing.
func TestSourceOutsideWorkingDirectory(t *testing.T) {
	inTree(t, map[string]string{"other/a.go": twoSites, "work/keep.txt": ""})
	t.Chdir("work")
	other, err := filepath.Abs("../other")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"../other"}, "../other/a.go"},
		{[]string{other + "/..."}, other + "/a.go"},
		{[]string{other, "../other/..."}, "../other/a.go"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-list"}, tc.args...), &stdout, &stderr); err != nil {
			t.Fatalf("run -list %v: %v\n%s", tc.args, err, stderr.String())
		}
		want := tc.name + ":6:7: collections.NewArrayList[int]() (list[int] -> list/array)\n" +
			tc.name + ":7:7: collections.NewLinkedList[int]() (list[int] -> list/linked)\n"
		if stdout.String() != want {
			t.Errorf("-list %v printed:\n%s\nwant:\n%s", tc.args, stdout.String(), want)
		}
	}

	// A diff header a/../other/a.go or a//abs/other/a.go does not apply
	// with patch -p1, so the diff is refused before anything is printed.
	var stdout, stderr bytes.Buffer
	for _, tc := range []struct{ arg, name string }{{"../other", "../other/a.go"}, {other, other + "/a.go"}} {
		err := run([]string{tc.arg}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "nothing written") || !strings.Contains(err.Error(), "a diff cannot name "+tc.name) {
			t.Fatalf("run %s = %v, want a failure naming %s", tc.arg, err, tc.name)
		}
		if stdout.Len() != 0 {
			t.Fatalf("a refused diff printed:\n%s", stdout.String())
		}
	}

	err = run([]string{"-o", "out", "../other"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "nothing written") || !strings.Contains(err.Error(), "../other/a.go") {
		t.Fatalf("run -o out ../other = %v, want a failure naming ../other/a.go", err)
	}
	for _, name := range []string{"out", "other"} { // out/../other/a.go is other/a.go
		if _, err := os.Stat(name); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s exists after a rejected run (stat: %v)", name, err)
		}
	}
	if stdout.Len() != 0 || readFile(t, "../other/a.go") != twoSites {
		t.Error("a rejected run printed a diff or changed the source")
	}

	// In place, the sites keep the name the argument spells.
	if err := run([]string{"-w", "../other"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -w ../other: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(readFile(t, "../other/a.go"), `core.WithName("../other/a.go:6")`) {
		t.Errorf("-w ../other does not name the site ../other/a.go:6:\n%s", readFile(t, "../other/a.go"))
	}
}
