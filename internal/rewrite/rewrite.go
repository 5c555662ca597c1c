// Package rewrite is the Go analogue of the paper's automated parser
// (Section 4.3): it scans source files for collection allocation sites that
// instantiate catalog variants through this module's zero-argument
// constructors and rewrites each site to draw from a static allocation
// context instead, exactly as Figure 4 shows for Java:
//
//	// before
//	l := collections.NewArrayList[int]()
//	// after
//	l := switchCtx1.NewList()
//
// plus a generated package-level block declaring the engine and one context
// per site. cmd/collopt is the front end of both rewrite modes:
//
//   - adaptive (the paper's parser, collopt without -store): the context
//     keeps the full default candidate pool and the engine switches variants
//     online. Like the paper, the default rewrite only touches sites
//     declared through the JDK-dominant default constructors;
//     Config.DefaultsOnly false extends it to every recognized constructor.
//   - pinned (collopt -store): the context is restricted to a single chosen
//     variant (WithCandidates == WithDefaultVariant), turning an offline
//     search result into a static, reviewable source patch.
//
// Constructor recognition is driven by the collection catalog's
// Entry.Constructor column (collections.ConstructorIndex), cached once per
// Rewriter, so user variants registered with collections.WithConstructor are
// discovered like the builtins. Constructor calls the rewriter sees but
// cannot rewrite are reported as a skipped-sites list rather than silently
// ignored.
package rewrite

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"

	"repro/internal/collections"
)

// Marker identifies generated code; files containing it are left alone so
// the rewriter is idempotent. Its text names the command that first wrote it
// and must stay byte for byte: trees rewritten earlier carry it, and a
// changed marker would let a second run rewrite them again.
const Marker = "// Code generated by switchparse; allocation contexts below."

// collectionsPath is the import path constructor calls are matched against.
const collectionsPath = "repro/internal/collections"

// Site describes one rewritable allocation site.
type Site struct {
	File string
	Line int
	Col  int
	// Kind is the collection abstraction instantiated at the site.
	Kind collections.Abstraction
	// Variant is the catalog variant the recognized constructor
	// instantiates — the baseline assignment of the offline search and the
	// default variant of an adaptive rewrite.
	Variant collections.VariantID
	// TypeArgs is the literal type-argument text, e.g. "int" or
	// "string, int".
	TypeArgs string
	// Original is the replaced expression text.
	Original string

	// byte offsets of the full call expression within the source.
	start, end int
	ctxName    string
}

// Name returns the site's stable identifier, "file:line" — the context name
// generated rewrites declare and the key profiles are matched under.
func (s Site) Name() string { return fmt.Sprintf("%s:%d", s.File, s.Line) }

// SkippedSite is a constructor call the scanner saw but cannot (or was told
// not to) rewrite.
type SkippedSite struct {
	File   string
	Line   int
	Col    int
	Call   string // source text of the call expression
	Reason string
}

// ScanResult is the outcome of scanning one file.
type ScanResult struct {
	// Sites are the rewritable allocation sites in positional order.
	Sites []Site
	// Skipped lists constructor calls that were recognized as allocation
	// attempts but excluded, with the reason.
	Skipped []SkippedSite
}

// Rewriter scans and rewrites source files against one immutable view of the
// variant catalog, taken when the Rewriter is built — the catalog is
// consulted once per run, not once per site.
type Rewriter struct {
	byConstructor map[string]collections.Entry
	byID          map[collections.VariantID]collections.Entry
}

// NewRewriter captures the current catalog snapshot.
func NewRewriter() *Rewriter {
	r := &Rewriter{
		byConstructor: collections.ConstructorIndex(),
		byID:          make(map[collections.VariantID]collections.Entry),
	}
	for _, e := range collections.Entries() {
		r.byID[e.Info.ID] = e
	}
	return r
}

// Config selects the rewrite mode.
type Config struct {
	// DefaultsOnly restricts the adaptive rewrite to the paper's three
	// JDK-dominant default constructors (NewArrayList, NewHashSet,
	// NewHashMap); other recognized sites are reported as skipped. This is
	// the parser's Section 4.3 behavior and cmd/collopt's default without
	// -all.
	DefaultsOnly bool
	// Pin, when non-nil, switches to pinned mode: it is called for every
	// recognized site and returns the variant to pin the site to. Sites for
	// which it reports ok=false are left untouched (and listed as skipped).
	Pin func(Site) (collections.VariantID, bool)
}

// defaultConstructorVariants are the paper's JDK-dominant defaults — the only
// sites the Section 4.3 parser rewrites.
var defaultConstructorVariants = map[collections.VariantID]bool{
	collections.ArrayListID: true,
	collections.HashSetID:   true,
	collections.HashMapID:   true,
}

// newMethod returns the context method replacing the constructor.
func newMethod(kind collections.Abstraction) string {
	switch kind {
	case collections.ListAbstraction:
		return "NewList"
	case collections.SetAbstraction:
		return "NewSet"
	default:
		return "NewMap"
	}
}

// contextConstructor returns the core constructor for the context decl.
func contextConstructor(kind collections.Abstraction) string {
	switch kind {
	case collections.ListAbstraction:
		return "NewListContext"
	case collections.SetAbstraction:
		return "NewSetContext"
	default:
		return "NewMapContext"
	}
}

// Scan parses src and returns the rewritable allocation sites in positional
// order, plus the constructor calls that were recognized but excluded.
// Already-rewritten files (containing Marker) scan empty.
func (r *Rewriter) Scan(src []byte, filename string) (ScanResult, error) {
	var res ScanResult
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return res, fmt.Errorf("rewrite: parsing %s: %w", filename, err)
	}
	if bytes.Contains(src, []byte(Marker)) {
		return res, nil // already rewritten
	}
	// Find the local name of the collections import ("collections" unless
	// aliased); bail out if the package is not imported.
	pkgName := importName(file, collectionsPath)
	if pkgName == "" || pkgName == "_" {
		return res, nil
	}
	for _, decl := range file.Decls {
		locals := localTypes(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, typeArgs := constructorOf(call.Fun)
			if sel == nil {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok || ident.Name != pkgName || !strings.HasPrefix(sel.Sel.Name, "New") {
				return true
			}
			pos := fset.Position(call.Pos())
			start := fset.Position(call.Pos()).Offset
			end := fset.Position(call.End()).Offset
			text := string(src[start:end])
			skip := func(reason string) {
				res.Skipped = append(res.Skipped, SkippedSite{
					File: filename, Line: pos.Line, Col: pos.Column,
					Call: text, Reason: reason,
				})
			}
			entry, known := r.byConstructor[sel.Sel.Name]
			local := localTypeArg(typeArgs, locals)
			switch {
			case len(call.Args) > 0:
				skip("parameterized constructor call (explicit capacity/preset choice)")
			case !known:
				skip("no catalog variant declares this constructor")
			case entry.Group == collections.GroupSorted:
				skip(fmt.Sprintf("sorted extension %q needs cmp.Ordered elements; allocation contexts require only comparable", entry.Info.ID))
			case entry.Group == collections.GroupConcurrent:
				skip(fmt.Sprintf("concurrent extension %q is outside the context candidate pools", entry.Info.ID))
			case len(typeArgs) == 0:
				skip("cannot determine element type (no explicit type arguments)")
			case local != "":
				skip(local + "; the generated package-level context cannot name it")
			default:
				res.Sites = append(res.Sites, Site{
					File:     filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Kind:     entry.Info.Abstraction,
					Variant:  entry.Info.ID,
					TypeArgs: typeArgText(src, fset, typeArgs),
					Original: text,
					start:    start,
					end:      end,
				})
			}
			return true
		})
	}
	sort.Slice(res.Sites, func(i, j int) bool { return res.Sites[i].start < res.Sites[j].start })
	sort.Slice(res.Skipped, func(i, j int) bool {
		a, b := res.Skipped[i], res.Skipped[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return res, nil
}

// Rewrite rewrites the allocation sites of src selected by cfg to static
// allocation contexts, appending the generated declarations. It returns the
// rewritten source and the scan outcome with res.Sites narrowed to the sites
// actually rewritten; sites excluded by the mode are appended to res.Skipped,
// after the scan's own. If no site is rewritten, src is returned unchanged.
func (r *Rewriter) Rewrite(src []byte, filename string, cfg Config) ([]byte, ScanResult, error) {
	res, err := r.Scan(src, filename)
	if err != nil {
		return nil, res, err
	}

	// Partition the recognized sites by mode.
	var sites []Site
	pins := make(map[int]collections.VariantID) // index into sites
	for _, s := range res.Sites {
		switch {
		case cfg.Pin != nil:
			id, ok := cfg.Pin(s)
			if !ok {
				res.Skipped = append(res.Skipped, skippedFrom(s, "not selected for pinning"))
				continue
			}
			e, found := r.byID[id]
			if !found || e.Info.Abstraction != s.Kind {
				return nil, res, fmt.Errorf("rewrite: %s: cannot pin %s site to %q", s.Name(), s.Kind, id)
			}
			pins[len(sites)] = id
			sites = append(sites, s)
		case cfg.DefaultsOnly && !defaultConstructorVariants[s.Variant]:
			res.Skipped = append(res.Skipped, skippedFrom(s, "non-default constructor (the paper's parser rewrites JDK defaults only)"))
		default:
			sites = append(sites, s)
		}
	}
	res.Sites = sites
	if len(sites) == 0 {
		return src, res, nil
	}
	for i := range sites {
		sites[i].ctxName = fmt.Sprintf("switchCtx%d", i+1)
	}

	// Apply replacements back to front so offsets stay valid.
	out := append([]byte(nil), src...)
	for i := len(sites) - 1; i >= 0; i-- {
		s := sites[i]
		repl := fmt.Sprintf("%s.%s()", s.ctxName, newMethod(s.Kind))
		out = append(out[:s.start], append([]byte(repl), out[s.end:]...)...)
	}

	// Ensure the core import exists.
	out, err = ensureImport(out, filename, "repro/internal/core")
	if err != nil {
		return nil, res, err
	}

	// Append the generated static-context declarations.
	var decl bytes.Buffer
	fmt.Fprintf(&decl, "\n%s\n", Marker)
	fmt.Fprintf(&decl, "var switchEngine = core.NewEngine(core.Config{})\n\nvar (\n")
	for i, s := range sites {
		fmt.Fprintf(&decl, "\t%s = core.%s[%s](switchEngine,\n\t\tcore.WithName(%q)", s.ctxName, contextConstructor(s.Kind), s.TypeArgs, s.Name())
		if id, pinned := pins[i]; pinned {
			// Single-candidate pool: the context never switches away from
			// the search's chosen variant.
			fmt.Fprintf(&decl, ",\n\t\tcore.WithDefaultVariant(%q),\n\t\tcore.WithCandidates(%q))\n", id, id)
		} else {
			fmt.Fprintf(&decl, ",\n\t\tcore.WithDefaultVariant(%q))\n", s.Variant)
		}
	}
	fmt.Fprintf(&decl, ")\n")
	out = append(out, decl.Bytes()...)

	// If every use of the collections package was rewritten away, the
	// import is now unused and would fail compilation — drop it.
	out, err = dropUnusedImport(out, filename, collectionsPath)
	if err != nil {
		return nil, res, err
	}

	// Re-parse to guarantee the output is valid Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, filename, out, 0); err != nil {
		return nil, res, fmt.Errorf("rewrite: generated invalid Go for %s: %w", filename, err)
	}
	return out, res, nil
}

func skippedFrom(s Site, reason string) SkippedSite {
	return SkippedSite{File: s.File, Line: s.Line, Col: s.Col, Call: s.Original, Reason: reason}
}

// constructorOf unwraps fun into its selector and type-argument expressions:
// collections.NewArrayList[int] is an IndexExpr over a SelectorExpr;
// collections.NewHashMap[K, V] is an IndexListExpr. A bare SelectorExpr (a
// non-generic call) is returned with no type arguments so skipped-site
// reporting still sees it. The selector is nil when fun is not one.
func constructorOf(fun ast.Expr) (*ast.SelectorExpr, []ast.Expr) {
	x, args := instantiation(fun)
	sel, _ := x.(*ast.SelectorExpr)
	return sel, args
}

// instantiation splits x[A] or x[A, B] into x and its type arguments; any
// other expression is returned whole, with none.
func instantiation(e ast.Expr) (ast.Expr, []ast.Expr) {
	switch f := e.(type) {
	case *ast.IndexExpr:
		return f.X, []ast.Expr{f.Index}
	case *ast.IndexListExpr:
		return f.X, f.Indices
	}
	return e, nil
}

// localTypes maps the type names a top-level declaration introduces that
// package-level code cannot name to what they are: the type parameters of a
// function and of a method's receiver, and every type declared inside a
// function body (conservatively, whatever its scope). It reads the syntax
// alone: go/parser leaves uses of a receiver's type parameters unresolved
// (Ident.Obj is nil), so an Obj-based check would miss them.
func localTypes(decl ast.Decl) map[string]string {
	locals := map[string]string{}
	if fd, ok := decl.(*ast.FuncDecl); ok {
		if fd.Type.TypeParams != nil {
			for _, f := range fd.Type.TypeParams.List {
				for _, id := range f.Names {
					locals[id.Name] = "a type parameter of the enclosing function"
				}
			}
		}
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			_, params := instantiation(recv)
			for _, p := range params {
				if id, ok := p.(*ast.Ident); ok {
					locals[id.Name] = "a type parameter of the method's receiver"
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		// A DeclStmt is a declaration inside a function body, package-level
		// function literals included.
		if ds, ok := n.(*ast.DeclStmt); ok {
			if gd, ok := ds.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						locals[ts.Name.Name] = "a type declared inside the function"
					}
				}
			}
		}
		return true
	})
	return locals
}

// localTypeArg describes the first name in a site's type arguments that
// locals holds, or returns "" when the generated package-level context can
// name every type argument.
func localTypeArg(args []ast.Expr, locals map[string]string) string {
	var found string
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // pkg.T: another package's type is never local
			case *ast.Ident:
				if what, ok := locals[n.Name]; ok && found == "" {
					found = fmt.Sprintf("type argument %s is %s", n.Name, what)
				}
			}
			return found == ""
		})
	}
	return found
}

// typeArgText extracts the source text of the type arguments.
func typeArgText(src []byte, fset *token.FileSet, args []ast.Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		start := fset.Position(a.Pos()).Offset
		end := fset.Position(a.End()).Offset
		parts[i] = string(src[start:end])
	}
	return strings.Join(parts, ", ")
}

// importName returns the local name of the named import, or "".
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "collections"
	}
	return ""
}

// dropUnusedImport removes the import of path when its package name is no
// longer referenced anywhere in the file.
func dropUnusedImport(src []byte, filename, path string) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, fmt.Errorf("rewrite: re-parsing for import pruning: %w", err)
	}
	name := importName(file, path)
	if name == "" {
		return src, nil
	}
	used := false
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if ident, ok := sel.X.(*ast.Ident); ok && ident.Name == name && ident.Obj == nil {
				used = true
				return false
			}
		}
		return true
	})
	if used {
		return src, nil
	}
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		start := fset.Position(imp.Pos()).Offset
		end := fset.Position(imp.End()).Offset
		// Expand to swallow the line: leading tab/spaces, the optional
		// `import ` keyword of a single-line declaration, and the
		// trailing newline.
		lineStart := start
		for lineStart > 0 && src[lineStart-1] != '\n' {
			lineStart--
		}
		prefix := string(src[lineStart:start])
		if strings.TrimSpace(prefix) == "import" || strings.TrimSpace(prefix) == "" {
			start = lineStart
		}
		if end < len(src) && src[end] == '\n' {
			end++
		}
		out := append(src[:start:start], src[end:]...)
		return out, nil
	}
	return src, nil
}

// ensureImport adds an import of path to the file if missing, via a textual
// insertion after the last existing import (or the package clause).
func ensureImport(src []byte, filename, path string) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ImportsOnly)
	if err != nil {
		return nil, fmt.Errorf("rewrite: re-parsing imports: %w", err)
	}
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return src, nil
		}
	}
	if len(file.Imports) > 0 {
		// Insert after the last import spec, inside its declaration if
		// it is a block.
		last := file.Imports[len(file.Imports)-1]
		off := fset.Position(last.End()).Offset
		ins := fmt.Sprintf("\n\t%q", path)
		if len(file.Decls) > 0 {
			if gd, ok := file.Decls[0].(*ast.GenDecl); ok && gd.Tok == token.IMPORT && !gd.Lparen.IsValid() {
				// Single-line import: turn the insertion into its own
				// import declaration after it.
				ins = fmt.Sprintf("\nimport %q", path)
			}
		}
		out := append(src[:off:off], append([]byte(ins), src[off:]...)...)
		return out, nil
	}
	// No imports at all: add one after the package clause.
	off := fset.Position(file.Name.End()).Offset
	ins := fmt.Sprintf("\n\nimport %q", path)
	out := append(src[:off:off], append([]byte(ins), src[off:]...)...)
	return out, nil
}
