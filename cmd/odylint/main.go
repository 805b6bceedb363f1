// Command odylint runs the repository's domain-specific static-analysis
// suite (see internal/lint) and exits non-zero if any diagnostic fires,
// making it suitable as a CI gate:
//
//	go run ./cmd/odylint ./...
//
// Usage:
//
//	odylint [flags] [patterns]
//
// Patterns select packages by import path relative to the module root:
// "./..." (the default) lints every package, "./internal/sim" one package,
// "./internal/..." a subtree. Flags:
//
//	-list            print the analyzers and exit
//	-only a,b        run only the named analyzers
//	-typeerrors      also print type-checker errors encountered while loading
//	-json            emit the machine-readable report on stdout
//	-baseline FILE   suppress findings grandfathered in FILE (with expiry);
//	                 stale or expired entries fail the run
//	-write-baseline  regenerate FILE from current findings (needs -baseline);
//	                 retained entries keep their expiry, new ones get 180 days
//	-expiry-warn N   with -baseline: list entries expiring within N days
//	                 (warning only; exit status unaffected)
//	-hotreport       print the ranked kernel hot-path allocation report
//
// Exit status: 0 clean (possibly via baseline), 1 findings or baseline
// rot (stale/expired entries), 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"odyssey/internal/lint"
)

// jsonReport is the -json schema, consumed by CI artifact tooling. Keep
// field changes backward compatible: add, do not rename.
type jsonReport struct {
	Module      string           `json:"module"`
	Analyzers   []string         `json:"analyzers"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Baseline    *jsonBaseline    `json:"baseline,omitempty"`
	Hotalloc    []lint.HotSite   `json:"hotalloc_report"`
	Summary     jsonSummary      `json:"summary"`
}

type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonBaseline struct {
	Path       string               `json:"path"`
	Entries    int                  `json:"entries"`
	Suppressed int                  `json:"suppressed"`
	Expired    []lint.BaselineEntry `json:"expired"`
	Stale      []lint.BaselineEntry `json:"stale"`
}

type jsonSummary struct {
	Total      int            `json:"total"`
	ByAnalyzer map[string]int `json:"by_analyzer"`
}

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "print the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	typeErrors := flag.Bool("typeerrors", false, "print type-checker errors encountered while loading")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report on stdout")
	baselinePath := flag.String("baseline", "", "baseline file of grandfathered findings")
	writeBaseline := flag.Bool("write-baseline", false, "regenerate the -baseline file from current findings")
	expiryWarn := flag.Int("expiry-warn", 0, "with -baseline: warn about entries expiring within N days")
	hotreport := flag.Bool("hotreport", false, "print the ranked kernel hot-path allocation report")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "odylint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "odylint: -write-baseline requires -baseline FILE")
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
		return 2
	}

	filter, err := patternFilter(mod.Path, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
		return 2
	}

	if *typeErrors {
		for _, pkg := range mod.Pkgs {
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "odylint: typecheck %s: %v\n", pkg.Path, te)
			}
		}
	}

	diags := lint.RunModule(mod, analyzers, filter)
	now := time.Now()

	var baseline *lint.Baseline
	var res lint.BaselineResult
	res.Kept = diags
	if *baselinePath != "" {
		baseline, err = lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
			return 2
		}
		if *writeBaseline {
			if err := lint.WriteBaseline(*baselinePath, mod.Root, baseline, diags, now.AddDate(0, 0, 180)); err != nil {
				fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "odylint: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
			return 0
		}
		res = baseline.Apply(mod.Root, diags, now)
		if *expiryWarn > 0 {
			for _, e := range baseline.ExpiringWithin(now, time.Duration(*expiryWarn)*24*time.Hour) {
				fmt.Fprintf(os.Stderr, "odylint: baseline entry expires soon: %s\n", e)
			}
		}
	}

	if *jsonOut {
		rep := jsonReport{
			Module:   mod.Path,
			Hotalloc: mod.HotallocReport(),
			Summary:  jsonSummary{Total: len(res.Kept), ByAnalyzer: map[string]int{}},
		}
		for _, a := range analyzers {
			rep.Analyzers = append(rep.Analyzers, a.Name)
		}
		for _, d := range res.Kept {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
				File: relTo(mod.Root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			rep.Summary.ByAnalyzer[d.Analyzer]++
		}
		if baseline != nil {
			rep.Baseline = &jsonBaseline{
				Path: *baselinePath, Entries: len(baseline.Entries),
				Suppressed: res.Suppressed, Expired: res.Expired, Stale: res.Stale,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Kept {
			fmt.Printf("%s:%d:%d: %s (%s)\n", relTo(mod.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
		if *hotreport {
			printHotReport(mod)
		}
	}

	failed := false
	if len(res.Kept) > 0 {
		fmt.Fprintf(os.Stderr, "odylint: %d diagnostic(s)", len(res.Kept))
		if res.Suppressed > 0 {
			fmt.Fprintf(os.Stderr, " (%d baselined)", res.Suppressed)
		}
		fmt.Fprintln(os.Stderr)
		failed = true
	}
	for _, e := range res.Expired {
		fmt.Fprintf(os.Stderr, "odylint: baseline entry expired (finding fires above): %s\n", e)
		failed = true
	}
	for _, e := range res.Stale {
		fmt.Fprintf(os.Stderr, "odylint: stale baseline entry matches no finding (remove it): %s\n", e)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

func printHotReport(mod *lint.Module) {
	sites := mod.HotallocReport()
	fmt.Printf("kernel hot-path allocation report: %d site(s)\n", len(sites))
	for _, s := range sites {
		loop := " "
		if s.InLoop {
			loop = "L"
		}
		fmt.Printf("%4d %s d%-2d %-28s %s:%d  %s: %s\n",
			s.Rank, loop, s.Depth, s.Func, s.File, s.Line, s.Kind, s.Detail)
	}
}

// patternFilter converts "./..."-style patterns into an import-path
// predicate rooted at the module path.
func patternFilter(modPath string, patterns []string) (func(string) bool, error) {
	type rule struct {
		path string
		tree bool
	}
	var rules []rule
	for _, p := range patterns {
		orig := p
		tree := false
		if p == "all" || p == "..." {
			p = "./..."
		}
		if strings.HasSuffix(p, "/...") {
			tree = true
			p = strings.TrimSuffix(p, "/...")
		}
		p = strings.TrimPrefix(p, "./")
		p = strings.Trim(p, "/")
		var ip string
		switch {
		case p == "" || p == ".":
			ip = modPath
		case strings.HasPrefix(p, modPath):
			ip = p
		default:
			ip = modPath + "/" + p
		}
		if strings.ContainsAny(p, "*[?") {
			return nil, fmt.Errorf("unsupported pattern %q (use ./dir or ./dir/...)", orig)
		}
		rules = append(rules, rule{path: ip, tree: tree})
	}
	return func(pkgPath string) bool {
		for _, r := range rules {
			if pkgPath == r.path {
				return true
			}
			if r.tree && strings.HasPrefix(pkgPath, r.path+"/") {
				return true
			}
		}
		return false
	}, nil
}

func relTo(root, path string) string {
	if !strings.HasPrefix(path, root) {
		return path
	}
	return strings.TrimPrefix(strings.TrimPrefix(path, root), "/")
}
