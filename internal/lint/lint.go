// Package lint is odylint's engine: a dependency-free static-analysis
// framework purpose-built for this repository's invariants.
//
// Every result this reproduction reports is an energy integral computed by
// the deterministic discrete-event kernel in internal/sim. A single stray
// time.Now, global math/rand call, or exact float comparison can silently
// corrupt the Figure 4-style validations without failing any test, so the
// rules that protect measurement integrity are enforced mechanically here
// rather than by review. The framework loads the whole module with only
// the standard library (go/build for file discovery, go/parser for syntax,
// go/types with a GOROOT source importer for semantics - no
// golang.org/x/tools, keeping go.mod dependency-free), then runs named
// analyzers that report file:line diagnostics.
//
// Analyzers (see their files for the precise rules):
//
//   - detrand:    forbids wall-clock, environment, and global-RNG reads in
//     the simulation substrate; virtual time and injected RNG only.
//   - floateq:    flags == / != between floating-point energy/power values.
//   - kernelctx:  confines a process's next/yield coroutine ends to the
//     four blessed functions (transfer, park, Spawn, Shutdown) and forbids
//     sharing a kernel across goroutines.
//   - panicfree:  flags panic in library code (cmd/ and examples/ exempt).
//   - droppederr: flags silently discarded error returns.
//   - upcallsync: forbids re-entering Viceroy.UpdateResource synchronously
//     from inside an upcall handler in the deterministic packages.
//   - taint:      whole-module reachability over the call graph
//     (callgraph.go): nondeterminism sources laundered through helper
//     packages are reported at the call site with the full chain.
//   - mapiter:    order-sensitive map iteration in the deterministic
//     packages, with a dataflow check proving counting/summing/keyed
//     writes and collect-then-sort safe.
//   - hotalloc:   per-event allocations in functions reachable from the
//     kernel event loop and power integrator, plus a module-wide ranked
//     report (Module.HotallocReport) seeding the perf roadmap.
//
// The one way to suppress a diagnostic is an
// "//odylint:allow <analyzer> <reason>" comment on or directly above the
// offending line (directives.go). A directive that names an unknown
// analyzer or gives no reason is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding: an analyzer's complaint at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand,
		Floateq,
		Kernelctx,
		Panicfree,
		Droppederr,
		Upcallsync,
		Taint,
		Mapiter,
		Hotalloc,
	}
}

// Pass is one (analyzer, package) execution. Analyzers read the syntax and
// type information and call Reportf; the framework handles suppression
// directives and collection.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an //odylint:allow directive
// suppresses this analyzer on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunModule applies analyzers to each package of mod accepted by filter
// (nil means all), and reports the package's malformed //odylint:allow
// directives whichever analyzers run. Diagnostics come back sorted by
// file, line, column, analyzer.
func RunModule(mod *Module, analyzers []*Analyzer, filter func(pkgPath string) bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		if filter != nil && !filter(pkg.Path) {
			continue
		}
		diags = append(diags, pkg.badDirectives...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Module: mod, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// inspect walks every file of the pass's package in source order, invoking
// fn on each node (ast.Inspect semantics: return false to prune).
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
