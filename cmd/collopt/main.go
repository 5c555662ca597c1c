// Command collopt rewrites collection allocation sites through
// internal/rewrite, in one of two modes.
//
// Without -store it is the paper's automated parser (Section 4.3, Figure 4):
// sites built by the default constructors (collections.NewArrayList /
// NewHashSet / NewHashMap) become static adaptive allocation contexts. -all
// extends this to every zero-argument catalog constructor, keeping each
// site's variant as the context default.
//
// With -store it is the offline profile-guided optimizer: it searches the
// per-site variant assignments for the Pareto front over the store's
// workload profiles and the cost models (internal/search), prints the front
// (table + JSON), and pins each site to its variant in the knee-point
// member, or in member -pick N.
//
// Usage:
//
//	collopt -list ./myapp/...                          # list the rewritable sites
//	collopt -w ./myapp/...                             # adaptive rewrite in place
//	collopt -store DIR -src ./... -objective time,mem  # search, then pin
//
// Every file is rewritten in memory before any is delivered: as unified
// diffs on stdout, into a mirror tree with -o DIR, or in place with -w. If a
// file fails to read, parse or rewrite, -o would mirror it outside DIR, or a
// diff would name it outside the working directory (where patch -p1 cannot
// find it), the run fails listing every failure and writes nothing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/rewrite"
	"repro/internal/search"
	"repro/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "collopt:", err)
		os.Exit(1)
	}
}

type srcList []string

func (s *srcList) String() string     { return strings.Join(*s, ",") }
func (s *srcList) Set(v string) error { *s = append(*s, v); return nil }

func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("collopt", flag.ExitOnError)
	flags.SetOutput(stderr)
	var srcs srcList
	storeDir := flags.String("store", "", "tuner store directory (or store file) supplying workload profiles; selects the search-and-pin mode")
	flags.Var(&srcs, "src", "source file, directory, or dir/... to scan for allocation sites (repeatable; also taken from the arguments)")
	list := flags.Bool("list", false, "only list the rewritable allocation sites")
	all := flags.Bool("all", false, "without -store: rewrite every recognized catalog constructor, not only the JDK defaults")
	objective := flags.String("objective", "time,mem", "comma-separated search objectives: time, mem, alloc, energy")
	seed := flags.Int64("seed", 1, "search random seed")
	pop := flags.Int("pop", 64, "search population size")
	gens := flags.Int("gens", 120, "search generations")
	pick := flags.Int("pick", -1, "front member to emit patches for (-1 = automatic knee point)")
	top := flags.Int("top", 0, "limit the printed front table to the first N rows (0 = all)")
	write := flags.Bool("w", false, "rewrite files in place")
	outDir := flags.String("o", "", "write rewritten files into this directory instead of diffing")
	jsonOut := flags.String("json", "", "also write the search result JSON to this file")
	events := flags.String("events", "", "write framework events (JSONL) to this file")
	quiet := flags.Bool("q", false, "suppress event loglines on stderr")
	flags.Parse(args)
	srcs = append(srcs, flags.Args()...)
	if len(srcs) == 0 {
		return fmt.Errorf("no sources: pass -src FILE|DIR|DIR/...")
	}
	pinned := *storeDir != ""
	if err := checkModeFlags(flags, pinned); err != nil {
		return err
	}

	// ---- sinks ---------------------------------------------------------
	var sinks []obs.Sink
	if !*quiet {
		sinks = append(sinks, obs.NewLogfSink(func(format string, args ...any) {
			fmt.Fprintf(stderr, "collopt: "+format+"\n", args...)
		}))
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fmt.Errorf("creating events file: %w", err)
		}
		defer f.Close()
		jsonl := obs.NewJSONLSink(f)
		defer jsonl.Flush()
		sinks = append(sinks, jsonl)
	}
	sink := obs.Multi(sinks...)
	emit := func(e obs.Event) {
		if sink != nil {
			sink.Emit(e)
		}
	}

	// ---- scan sources --------------------------------------------------
	files, err := resolveSources(srcs)
	if err != nil {
		return err
	}
	rw := rewrite.NewRewriter()
	type file struct {
		path     string
		src, out []byte
		skipped  int // the scan's own skips, already reported
		sites    int // sites rewritten
	}
	var scans []*file
	var sites []rewrite.Site
	var failures []error
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			failures = append(failures, err)
			continue
		}
		res, err := rw.Scan(src, path)
		if err != nil {
			failures = append(failures, err)
			continue
		}
		reportSkipped(stderr, res.Skipped)
		if len(res.Sites) > 0 {
			scans = append(scans, &file{path: path, src: src, skipped: len(res.Skipped)})
			sites = append(sites, res.Sites...)
		}
	}
	if len(failures) > 0 {
		return nothingWritten(failures)
	}
	if *list {
		for _, s := range sites {
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s[%s] -> %s)\n", s.File, s.Line, s.Col, s.Original, s.Kind, s.TypeArgs, s.Variant)
		}
		return nil
	}

	// ---- search (pinned mode) ------------------------------------------
	cfg := rewrite.Config{DefaultsOnly: !*all}
	var (
		res     search.Result
		problem search.Problem
		chosen  int
		matched int
	)
	if pinned {
		if len(sites) == 0 {
			return fmt.Errorf("no recognizable allocation sites under %v", []string(srcs))
		}
		objs, err := search.ParseObjectives(*objective)
		if err != nil {
			return err
		}
		store, err := tuner.ReadStore(*storeDir)
		if err != nil {
			return err
		}
		if !store.FingerprintMatches {
			fmt.Fprintf(stderr, "collopt: warning: store %s was measured on another machine (fingerprint mismatch); its profiles still drive the search but its model curves may not transfer\n", store.Path)
		}
		// Models: analytic defaults, refined curves overlaid when present.
		models := perfmodel.Default()
		if store.Models != nil {
			models = models.Clone()
			models.Merge(store.Models)
		}

		problem = search.Problem{Models: models, Objectives: objs}
		seedAssign := make([]collections.VariantID, len(sites))
		for i, s := range sites {
			prof, storeVariant, ok := matchProfile(s, store.Sites)
			if ok {
				matched++
			} else {
				fmt.Fprintf(stderr, "collopt: warning: no store profile for %s; using an abstraction-average profile\n", s.Name())
			}
			problem.Sites = append(problem.Sites, search.Site{
				Name:        s.Name(),
				Abstraction: s.Kind,
				Baseline:    s.Variant,
				Candidates:  candidatePool(s.Kind, s.Variant),
				Profile:     prof,
			})
			seedAssign[i] = s.Variant
			if storeVariant != "" {
				seedAssign[i] = storeVariant
			}
		}

		objNames := make([]string, len(objs))
		for i, o := range objs {
			objNames[i] = string(o)
		}
		emit(obs.SearchStarted{Store: store.Path, Sites: len(sites), Objectives: objNames, Seed: *seed})
		res, err = search.Run(problem, search.Config{
			Seed:        *seed,
			Population:  *pop,
			Generations: *gens,
			Seeds:       [][]collections.VariantID{seedAssign},
		})
		if err != nil {
			return err
		}
		dominating := 0
		for _, a := range res.Front {
			if n, noWorse := search.BetterCount(a.Costs, res.Baseline.Costs); noWorse && n >= 2 {
				dominating++
			}
		}
		emit(obs.SearchFront{
			Sites: len(sites), FrontSize: len(res.Front),
			Evaluations: res.Evaluations, DominatingBaseline: dominating,
		})

		chosen = *pick
		if chosen < 0 {
			chosen = chooseKnee(res)
		}
		if chosen < 0 || chosen >= len(res.Front) {
			return fmt.Errorf("-pick %d out of range (front has %d members)", chosen, len(res.Front))
		}
		byName := make(map[string]collections.VariantID, len(sites))
		for i, v := range res.Front[chosen].Variants {
			byName[problem.Sites[i].Name] = v
		}
		cfg = rewrite.Config{Pin: func(s rewrite.Site) (collections.VariantID, bool) {
			v, ok := byName[s.Name()]
			if !ok || v == s.Variant {
				return "", false // unknown or already the chosen variant
			}
			return v, true
		}}
	}

	// ---- rewrite every file in memory ----------------------------------
	rewritten, patched := 0, 0
	for _, f := range scans {
		out, rres, err := rw.Rewrite(f.src, f.path, cfg)
		if err != nil {
			failures = append(failures, err)
			continue
		}
		if !pinned {
			// The adaptive mode's own exclusions (non-default
			// constructors) follow the scan's skips.
			reportSkipped(stderr, rres.Skipped[f.skipped:])
		}
		if f.out, f.sites = out, len(rres.Sites); f.sites > 0 {
			rewritten += f.sites
			patched++
			switch {
			case filepath.IsLocal(f.path) || *write: // deliverable as named
			case *outDir != "" && !filepath.IsAbs(f.path):
				failures = append(failures, fmt.Errorf("-o cannot mirror %s, which climbs out of the working directory; name it by absolute path", f.path))
			case *outDir == "":
				failures = append(failures, fmt.Errorf("a diff cannot name %s so that patch -p1 applies it, as it is outside the working directory; run from a directory that holds it, or use -o or -w", f.path))
			}
		}
	}
	if len(failures) > 0 {
		return nothingWritten(failures)
	}

	// ---- deliver -------------------------------------------------------
	if pinned {
		printFront(stdout, res, problem, chosen, *top)
		if err := printJSON(stdout, *jsonOut, res, chosen); err != nil {
			return err
		}
	}
	for _, f := range scans {
		if f.sites == 0 {
			continue
		}
		dest, err := deliver(stdout, f.path, f.src, f.out, *write, *outDir)
		if err != nil {
			return err
		}
		if pinned {
			emit(obs.PatchEmitted{File: f.path, Pinned: f.sites, Output: dest})
		}
	}
	if !pinned {
		fmt.Fprintf(stderr, "collopt: rewrote %d sites in %d files\n", rewritten, patched)
		return nil
	}
	if rewritten == 0 {
		fmt.Fprintln(stderr, "collopt: chosen assignment matches every site's current constructor; no patch needed")
	}
	fmt.Fprintf(stderr, "collopt: %d sites (%d profiled from store), front %d, chose #%d, pinned %d\n",
		len(sites), matched, len(res.Front), chosen, rewritten)
	return nil
}

// pinnedOnly names the flags that only the search-and-pin mode reads.
var pinnedOnly = map[string]bool{
	"json": true, "events": true, "objective": true, "seed": true,
	"pop": true, "gens": true, "pick": true, "top": true,
}

// checkModeFlags rejects flags set on the command line that the selected
// mode would ignore: the pinned-only flags without -store, and -all with it.
func checkModeFlags(flags *flag.FlagSet, pinned bool) error {
	var ignored []string
	flags.Visit(func(f *flag.Flag) {
		if pinnedOnly[f.Name] && !pinned || f.Name == "all" && pinned {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	mode := "with"
	if pinned {
		mode = "without"
	}
	return fmt.Errorf("%s: only read %s -store", strings.Join(ignored, ", "), mode)
}

// nothingWritten reports every file that failed to read, parse or rewrite.
func nothingWritten(failures []error) error {
	return fmt.Errorf("%d failure(s), nothing written:\n%w", len(failures), errors.Join(failures...))
}

// reportSkipped lists constructor calls that were seen but not rewritten,
// with the reason.
func reportSkipped(w io.Writer, skipped []rewrite.SkippedSite) {
	for _, sk := range skipped {
		fmt.Fprintf(w, "collopt: skipped %s:%d: %s — %s\n", sk.File, sk.Line, sk.Call, sk.Reason)
	}
}

// resolveSources expands file, dir and dir/... arguments into a sorted list
// of non-test .go files. A file is named as its argument names it, except
// that an argument inside the working directory is made relative to it; a
// file named two ways is listed once, under the name that sorts first.
func resolveSources(srcs []string) ([]string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	abs := func(path string) string {
		if filepath.IsAbs(path) {
			return path
		}
		return filepath.Join(wd, path)
	}
	var files []string
	for _, arg := range srcs {
		arg = filepath.Clean(strings.TrimSuffix(arg, "/..."))
		if rel, err := filepath.Rel(wd, abs(arg)); err == nil && filepath.IsLocal(rel) {
			arg = rel
		}
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	seen := make(map[string]bool, len(files))
	kept := files[:0]
	for _, f := range files {
		if key := abs(f); !seen[key] {
			seen[key] = true
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// candidatePool returns the default candidate variants of one abstraction in
// catalog order, with the site's baseline appended if it is not already a
// default candidate.
func candidatePool(kind collections.Abstraction, baseline collections.VariantID) []collections.VariantID {
	var out []collections.VariantID
	hasBaseline := false
	for _, e := range collections.Entries() {
		if e.Info.Abstraction != kind || !e.DefaultCandidate {
			continue
		}
		out = append(out, e.Info.ID)
		if e.Info.ID == baseline {
			hasBaseline = true
		}
	}
	if !hasBaseline {
		out = append(out, baseline)
	}
	return out
}

// matchProfile finds the store profile for a scanned site: exact context-name
// match first, then a path-suffix match (store names are relative to where
// the profiled binary ran, scan names to where collopt runs), then an
// average over the store's sites of the same abstraction.
func matchProfile(s rewrite.Site, stored []core.SiteSnapshot) (core.WorkloadProfile, collections.VariantID, bool) {
	name := s.Name()
	for _, st := range stored {
		if st.Name == name {
			return st.Profile, st.Variant, true
		}
	}
	file, line := splitSiteName(name)
	for _, st := range stored {
		sf, sl := splitSiteName(st.Name)
		if sl != line || sl == 0 {
			continue
		}
		if pathSuffix(file, sf) || pathSuffix(sf, file) {
			return st.Profile, st.Variant, true
		}
	}
	// Abstraction average: better than a made-up shape, still a warning.
	var agg core.WorkloadProfile
	n := 0
	for _, st := range stored {
		if st.Abstraction != string(s.Kind) {
			continue
		}
		p := st.Profile
		agg.Adds += p.Adds
		agg.Contains += p.Contains
		agg.Iterates += p.Iterates
		agg.Middles += p.Middles
		agg.Instances += p.Instances
		agg.MeanSize += p.MeanSize
		if p.MaxSize > agg.MaxSize {
			agg.MaxSize = p.MaxSize
		}
		n++
	}
	if n > 0 {
		agg.MeanSize /= float64(n)
		return agg, "", false
	}
	// Nothing of this abstraction in the store: a small generic workload.
	return core.WorkloadProfile{
		Adds: 100, Contains: 100, Iterates: 10, Middles: 1,
		Instances: 1, MeanSize: 50, MaxSize: 100,
	}, "", false
}

// splitSiteName splits "path/to/file.go:12" into path and line.
func splitSiteName(name string) (string, int) {
	i := strings.LastIndex(name, ":")
	if i < 0 {
		return name, 0
	}
	line, err := strconv.Atoi(strings.TrimSuffix(name[i+1:], "#1"))
	if err != nil {
		return name[:i], 0
	}
	return name[:i], line
}

// pathSuffix reports whether short is a path suffix of long ("a/b.go" of
// "x/a/b.go", or the two equal).
func pathSuffix(long, short string) bool {
	if long == short {
		return true
	}
	return strings.HasSuffix(long, "/"+short)
}

// chooseKnee picks the front member to patch with: among the members that
// weakly dominate the baseline on the most objectives, the one minimizing
// the Euclidean norm of baseline-relative costs (cost_k / baseline_k) — the
// most balanced improvement over the all-defaults assignment, rather than an
// extreme of either axis. Deterministic: ties break to the lower index.
func chooseKnee(res search.Result) int {
	if len(res.Front) == 0 {
		return -1
	}
	// Prefer members that dominate the baseline on as many objectives as
	// possible; degrade gracefully down to "no worse anywhere", then anyone.
	eligible := make([]int, 0, len(res.Front))
	for want := len(res.Baseline.Costs); want >= 0 && len(eligible) == 0; want-- {
		for i, a := range res.Front {
			n, noWorse := search.BetterCount(a.Costs, res.Baseline.Costs)
			if noWorse && n >= want {
				eligible = append(eligible, i)
			}
		}
	}
	if len(eligible) == 0 {
		for i := range res.Front {
			eligible = append(eligible, i)
		}
	}
	nObj := len(res.Objectives)
	best, bestDist := eligible[0], math.Inf(1)
	for _, i := range eligible {
		d := 0.0
		for k := 0; k < nObj; k++ {
			if base := res.Baseline.Costs[k]; base > 0 {
				x := res.Front[i].Costs[k] / base
				d += x * x
			}
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// printFront renders the Pareto front as a table.
func printFront(w io.Writer, res search.Result, p search.Problem, chosen, top int) {
	fmt.Fprintf(w, "Pareto front: %d assignments over %d sites (objectives: %v)\n\n", len(res.Front), len(p.Sites), res.Objectives)
	fmt.Fprintf(w, "  %-4s", "#")
	for _, o := range res.Objectives {
		fmt.Fprintf(w, " %-14s", o)
	}
	fmt.Fprintf(w, " assignment (site=variant where != baseline)\n")
	row := func(label string, a search.Assignment, mark string) {
		fmt.Fprintf(w, "  %-4s", label)
		for k := range res.Objectives {
			fmt.Fprintf(w, " %-14.4g", a.Costs[k])
		}
		var diffs []string
		for i, v := range a.Variants {
			if v != p.Sites[i].Baseline {
				diffs = append(diffs, fmt.Sprintf("%s=%s", p.Sites[i].Name, v))
			}
		}
		if len(diffs) == 0 {
			diffs = []string{"(all baseline)"}
		}
		fmt.Fprintf(w, " %s%s\n", strings.Join(diffs, " "), mark)
	}
	row("base", res.Baseline, "")
	for i, a := range res.Front {
		if top > 0 && i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(res.Front)-top)
			break
		}
		mark := ""
		if i == chosen {
			mark = "   <- chosen"
		}
		row(fmt.Sprint(i), a, mark)
	}
	fmt.Fprintln(w)
}

// printJSON writes the machine-readable result to stdout and optionally to a
// file.
func printJSON(w io.Writer, path string, res search.Result, chosen int) error {
	doc := struct {
		search.Result
		Chosen int `json:"chosen"`
	}{res, chosen}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("writing -json file: %w", err)
		}
	}
	return nil
}

// deliver writes one rewritten file: in place (-w), into an output tree
// (-o), or as a unified diff on stdout. It returns a description of where
// the file went.
func deliver(stdout io.Writer, path string, src, out []byte, inPlace bool, outDir string) (string, error) {
	switch {
	case inPlace:
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return "", err
		}
		return path + " (in place)", nil
	case outDir != "":
		dest := filepath.Join(outDir, path)
		if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(dest, out, 0o644); err != nil {
			return "", err
		}
		return dest, nil
	default:
		if _, err := io.WriteString(stdout, unifiedDiff("a/"+path, "b/"+path, src, out)); err != nil {
			return "", err
		}
		return "stdout (unified diff)", nil
	}
}
