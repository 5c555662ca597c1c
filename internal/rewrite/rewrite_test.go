package rewrite

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/collections"
)

const sample = `package demo

import (
	"fmt"

	"repro/internal/collections"
)

func build() {
	l := collections.NewArrayList[int]()
	s := collections.NewHashSet[string]()
	m := collections.NewHashMap[string, int]()
	l.Add(1)
	s.Add("x")
	m.Put("x", 1)
	fmt.Println(l.Len(), s.Len(), m.Len())
}
`

func TestScanFindsAllSites(t *testing.T) {
	res, err := NewRewriter().Scan([]byte(sample), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Sites
	if len(sites) != 3 {
		t.Fatalf("found %d sites, want 3", len(sites))
	}
	if sites[0].Kind != collections.ListAbstraction || sites[0].TypeArgs != "int" {
		t.Errorf("site 0 = %+v", sites[0])
	}
	if sites[1].Kind != collections.SetAbstraction || sites[1].TypeArgs != "string" {
		t.Errorf("site 1 = %+v", sites[1])
	}
	if sites[2].Kind != collections.MapAbstraction || sites[2].TypeArgs != "string, int" {
		t.Errorf("site 2 = %+v", sites[2])
	}
	if sites[0].Line != 10 {
		t.Errorf("site 0 line = %d, want 10", sites[0].Line)
	}
	if sites[0].Original != "collections.NewArrayList[int]()" {
		t.Errorf("site 0 original = %q", sites[0].Original)
	}
}

func TestRewriteProducesContexts(t *testing.T) {
	out, res, err := NewRewriter().Rewrite([]byte(sample), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 3 {
		t.Fatalf("rewrote %d sites, want 3", len(res.Sites))
	}
	text := string(out)
	for _, want := range []string{
		"switchCtx1.NewList()",
		"switchCtx2.NewSet()",
		"switchCtx3.NewMap()",
		`"repro/internal/core"`,
		"core.NewEngine(core.Config{})",
		"core.NewListContext[int](switchEngine",
		"core.NewSetContext[string](switchEngine",
		"core.NewMapContext[string, int](switchEngine",
		`core.WithName("demo.go:10")`,
		`core.WithDefaultVariant("list/array")`,
		`core.WithDefaultVariant("set/hash")`,
		`core.WithDefaultVariant("map/hash")`,
		Marker,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rewritten source missing %q\n---\n%s", want, text)
		}
	}
	for _, gone := range []string{"collections.NewArrayList", "collections.NewHashSet", "collections.NewHashMap"} {
		if strings.Contains(text, gone+"[") {
			t.Errorf("rewritten source still contains %s", gone)
		}
	}
	// The output must be parseable Go (Rewrite verifies, double-check).
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "demo.go", out, 0); err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
}

func TestRewriteIdempotent(t *testing.T) {
	out, res, err := NewRewriter().Rewrite([]byte(sample), "demo.go", Config{DefaultsOnly: true})
	if err != nil || len(res.Sites) == 0 {
		t.Fatal(err)
	}
	again, res2, err := NewRewriter().Rewrite(out, "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Sites) != 0 {
		t.Fatalf("second pass rewrote %d sites", len(res2.Sites))
	}
	if string(again) != string(out) {
		t.Fatal("second pass changed the file")
	}
}

func TestRewriteLeavesNonDefaultConstructorsAlone(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() {
	a := collections.NewLinkedList[int]()      // not a default constructor
	b := collections.NewArrayListCap[int](10)  // has args: explicit choice
	c := collections.NewOpenHashSet[int]()     // alternative variant
	_, _, _ = a, b, c
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 0 {
		t.Fatalf("rewrote %d sites, want 0", len(res.Sites))
	}
	if string(out) != src {
		t.Fatal("file changed despite no rewritable sites")
	}
}

func TestRewriteRespectsImportAlias(t *testing.T) {
	src := `package demo

import colls "repro/internal/collections"

func build() {
	l := colls.NewArrayList[int]()
	l.Add(1)
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("found %d sites under alias, want 1", len(res.Sites))
	}
	if !strings.Contains(string(out), "switchCtx1.NewList()") {
		t.Error("aliased site not rewritten")
	}
}

func TestRewriteSkipsFilesWithoutImport(t *testing.T) {
	src := `package demo

type NewArrayList struct{}

func build() {}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 0 || string(out) != src {
		t.Fatal("file without the collections import was modified")
	}
}

func TestRewriteSingleLineImport(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() {
	l := collections.NewArrayList[int]()
	_ = l
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "demo.go", out, 0); err != nil {
		t.Fatalf("output does not parse: %v\n---\n%s", err, out)
	}
	if !strings.Contains(string(out), `"repro/internal/core"`) {
		t.Error("core import not added")
	}
}

func TestScanRejectsInvalidGo(t *testing.T) {
	if _, err := NewRewriter().Scan([]byte("not go at all"), "bad.go"); err == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestRewriteStructFieldUsage(t *testing.T) {
	// Sites inside composite literals and nested expressions.
	src := `package demo

import "repro/internal/collections"

type holder struct {
	items interface{ Len() int }
}

func build() holder {
	return holder{items: collections.NewHashSet[int]()}
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(res.Sites))
	}
	if !strings.Contains(string(out), "holder{items: switchCtx1.NewSet()}") {
		t.Errorf("nested site not rewritten:\n%s", out)
	}
}

func TestRewriteDropsFullyReplacedImport(t *testing.T) {
	// Every collections use is rewritten: the import must disappear or
	// the output will not compile.
	src := `package demo

import "repro/internal/collections"

func Build() int {
	l := collections.NewArrayList[int]()
	l.Add(1)
	return l.Len()
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	if strings.Contains(string(out), `"repro/internal/collections"`) {
		t.Errorf("unused collections import survived:\n%s", out)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "demo.go", out, 0); err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, out)
	}
}

func TestRewriteKeepsStillUsedImport(t *testing.T) {
	// A remaining collections reference must keep the import.
	src := `package demo

import "repro/internal/collections"

func Build() int {
	l := collections.NewArrayList[int]()
	x := collections.NewLinkedList[int]() // not rewritten
	l.Add(1)
	x.Add(2)
	return l.Len() + x.Len()
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{DefaultsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	if !strings.Contains(string(out), `"repro/internal/collections"`) {
		t.Errorf("still-used collections import removed:\n%s", out)
	}
}

func TestScanRecognizesFullCatalog(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() {
	a := collections.NewLinkedList[int]()
	b := collections.NewOpenHashSet[string]()
	c := collections.NewArrayMap[string, int]()
	_, _, _ = a, b, c
}
`
	res, err := NewRewriter().Scan([]byte(src), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 3 {
		t.Fatalf("sites = %d, want 3 (%+v)", len(res.Sites), res.Sites)
	}
	wantVariants := []collections.VariantID{
		collections.LinkedListID,
		collections.OpenHashSetBalID,
		collections.ArrayMapID,
	}
	for i, want := range wantVariants {
		if res.Sites[i].Variant != want {
			t.Errorf("site %d variant = %q, want %q", i, res.Sites[i].Variant, want)
		}
	}
	if res.Sites[0].Name() != "demo.go:6" {
		t.Errorf("site 0 name = %q", res.Sites[0].Name())
	}
}

func TestScanReportsSkippedSites(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() {
	a := collections.NewArrayListCap[int](10)
	b := collections.NewAVLTreeSet[int]()
	c := collections.NewHashSet[int]()
	d := collections.NewFrobnicator[int]()
	_, _, _, _ = a, b, c, d
}
`
	res, err := NewRewriter().Scan([]byte(src), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 || res.Sites[0].Variant != collections.HashSetID {
		t.Fatalf("sites = %+v, want the one NewHashSet site", res.Sites)
	}
	if len(res.Skipped) != 3 {
		t.Fatalf("skipped = %d, want 3: %+v", len(res.Skipped), res.Skipped)
	}
	reasons := map[string]string{}
	for _, s := range res.Skipped {
		reasons[s.Call] = s.Reason
	}
	if r := reasons["collections.NewArrayListCap[int](10)"]; !strings.Contains(r, "parameterized") {
		t.Errorf("cap-call reason = %q", r)
	}
	if r := reasons["collections.NewAVLTreeSet[int]()"]; !strings.Contains(r, "cmp.Ordered") {
		t.Errorf("sorted reason = %q", r)
	}
	if r := reasons["collections.NewFrobnicator[int]()"]; !strings.Contains(r, "no catalog variant") {
		t.Errorf("unknown reason = %q", r)
	}
}

func TestScanSkipsLocalTypeArguments(t *testing.T) {
	// A generated context is a package-level variable, so it cannot name a
	// function's or a receiver's type parameter, or a type declared in a
	// function body. The package-level T in build is another type.
	src := `package demo

import "repro/internal/collections"

type T int

func uniq[T comparable](xs []T) int {
	s := collections.NewHashSet[T]()
	return s.Len()
}

type stack[E comparable] struct{ items collections.List[E] }

func (s *stack[E]) init() { s.items = collections.NewArrayList[E]() }

func build() int {
	type point struct{ x, y int }
	ps := collections.NewHashMap[string, []point]()
	ts := collections.NewHashSet[T]()
	return ps.Len() + ts.Len()
}
`
	res, err := NewRewriter().Scan([]byte(src), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 || res.Sites[0].Line != 19 || res.Sites[0].TypeArgs != "T" {
		t.Fatalf("sites = %+v, want only the package-level T set in build", res.Sites)
	}
	want := map[string]string{
		"collections.NewHashSet[T]()":               "type argument T is a type parameter of the enclosing function",
		"collections.NewArrayList[E]()":             "type argument E is a type parameter of the method's receiver",
		"collections.NewHashMap[string, []point]()": "type argument point is a type declared inside the function",
	}
	if len(res.Skipped) != len(want) {
		t.Fatalf("skipped = %+v, want %d", res.Skipped, len(want))
	}
	for _, sk := range res.Skipped {
		if w, ok := want[sk.Call]; !ok || !strings.HasPrefix(sk.Reason, w) {
			t.Errorf("skipped %s: reason %q, want it to start with %q", sk.Call, sk.Reason, w)
		}
	}
}

func TestRewritePinnedMode(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() int {
	l := collections.NewArrayList[int]()
	s := collections.NewHashSet[string]()
	l.Add(1)
	s.Add("x")
	return l.Len() + s.Len()
}
`
	pin := func(s Site) (collections.VariantID, bool) {
		if s.Kind == collections.ListAbstraction {
			return collections.HashArrayListID, true
		}
		return "", false
	}
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("rewrote %d sites, want 1", len(res.Sites))
	}
	text := string(out)
	for _, want := range []string{
		`core.WithDefaultVariant("list/hasharray")`,
		`core.WithCandidates("list/hasharray")`,
		"switchCtx1.NewList()",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pinned output missing %q\n---\n%s", want, text)
		}
	}
	if strings.Contains(text, "switchCtx2") {
		t.Error("unpinned set site was rewritten")
	}
	var unpinned bool
	for _, sk := range res.Skipped {
		if strings.Contains(sk.Reason, "not selected") {
			unpinned = true
		}
	}
	if !unpinned {
		t.Errorf("unpinned site not reported as skipped: %+v", res.Skipped)
	}
	// Pinned output must still be idempotent under a second pass.
	again, res2, err := NewRewriter().Rewrite(out, "demo.go", Config{Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Sites) != 0 || string(again) != string(out) {
		t.Fatal("pinned rewrite is not idempotent")
	}
}

func TestRewritePinnedRejectsWrongAbstraction(t *testing.T) {
	src := `package demo

import "repro/internal/collections"

func build() int {
	l := collections.NewArrayList[int]()
	l.Add(1)
	return l.Len()
}
`
	pin := func(Site) (collections.VariantID, bool) { return collections.HashSetID, true }
	if _, _, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{Pin: pin}); err == nil {
		t.Fatal("pinning a list site to a set variant succeeded")
	}
}

func TestRewriteAllConstructorsMode(t *testing.T) {
	// DefaultsOnly=false extends the adaptive rewrite to every recognized
	// constructor, keeping the recognized variant as the context default.
	src := `package demo

import "repro/internal/collections"

func build() int {
	l := collections.NewLinkedList[int]()
	l.Add(1)
	return l.Len()
}
`
	out, res, err := NewRewriter().Rewrite([]byte(src), "demo.go", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("rewrote %d sites, want 1", len(res.Sites))
	}
	if !strings.Contains(string(out), `core.WithDefaultVariant("list/linked")`) {
		t.Errorf("linked-list default not preserved:\n%s", out)
	}
}
