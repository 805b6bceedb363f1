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
//	-hotreport       print the ranked kernel hot-path allocation report
//
// The only way to silence a finding is an inline
// "//odylint:allow <analyzer> <reason>" directive (see internal/lint).
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"odyssey/internal/lint"
)

// jsonReport is the -json schema, consumed by CI artifact tooling. Keep
// field changes backward compatible: add, do not rename. It carries no
// baseline state: inline //odylint:allow directives are the only
// suppression, and RunModule has already applied them.
type jsonReport struct {
	Module      string           `json:"module"`
	Analyzers   []string         `json:"analyzers"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
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

	if *jsonOut {
		rep := jsonReport{
			Module:   mod.Path,
			Hotalloc: mod.HotallocReport(),
			Summary:  jsonSummary{Total: len(diags), ByAnalyzer: map[string]int{}},
		}
		for _, a := range analyzers {
			rep.Analyzers = append(rep.Analyzers, a.Name)
		}
		for _, d := range diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
				File: relTo(mod.Root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			rep.Summary.ByAnalyzer[d.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "odylint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", relTo(mod.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
		if *hotreport {
			printHotReport(mod)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "odylint: %d diagnostic(s)\n", len(diags))
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
