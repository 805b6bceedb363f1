package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A comment of the form
//
//	//odylint:allow analyzer1,analyzer2 <justification>
//
// silences the named analyzers on the directive's own line and on the
// statement that follows it. For a standalone comment above a multi-line
// statement (or declaration), the whole extent of that statement is
// covered - a directive above a call whose offending argument sits three
// lines down still applies. Spaces after the commas are tolerated
// ("analyzer1, analyzer2 reason" names two analyzers, not one and a half).
// The justification is free text and must be present. Directives exist for
// the rare case where a rule's letter conflicts with its spirit - a
// deliberately exact float comparison in a tie-break, an invariant panic
// that guards simulation causality - and every use is greppable for review.
// They are the only escape hatch, so each one is checked: a directive that
// names no analyzer, names one outside All(), or gives no justification is
// itself a diagnostic (analyzer "directive"), which no directive silences.

const directivePrefix = "odylint:allow"

// directiveAnalyzer is the Analyzer field of diagnostics about malformed
// directives. It is not in All(), so -only cannot deselect it.
const directiveAnalyzer = "directive"

// collectDirectives records, for every //odylint:allow comment in file,
// "filename:line:analyzer" keys for each covered line: the directive's own
// line, the line after, and - when a statement or declaration begins on
// either of those lines - every line through that node's end. It returns
// a diagnostic for every malformed directive.
func collectDirectives(fset *token.FileSet, file *ast.File, allow map[string]bool) []Diagnostic {
	// extent[start line] = furthest end line of any *simple* multi-line
	// statement or declaration beginning there. Block-carrying statements
	// (if, for, switch, function declarations) and statements containing
	// function literals are excluded: extending a directive over a whole
	// block would suppress far more than the author aimed at.
	extent := map[int]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.SendStmt, *ast.IncDecStmt, *ast.GenDecl, *ast.ValueSpec:
			if containsFuncLit(n) {
				return true
			}
			s := fset.Position(n.Pos()).Line
			e := fset.Position(n.End()).Line
			if e > extent[s] {
				extent[s] = e
			}
		}
		return true
	})

	var bad []Diagnostic
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			names, reason := splitDirectiveNames(rest)
			pos := fset.Position(c.Pos())
			report := func(format string, args ...any) {
				bad = append(bad, Diagnostic{Pos: pos, Analyzer: directiveAnalyzer, Message: fmt.Sprintf(format, args...)})
			}
			switch {
			case len(names) == 0:
				report("//%s names no analyzer", directivePrefix)
			case reason == "":
				report("//%s %s gives no justification: say why the rule does not apply here", directivePrefix, strings.Join(names, ","))
			}
			for _, name := range names {
				if !knownAnalyzer(name) {
					report("//%s names unknown analyzer %q (see odylint -list)", directivePrefix, name)
				}
			}
			last := pos.Line + 1
			for _, start := range []int{pos.Line, pos.Line + 1} {
				if e := extent[start]; e > last {
					last = e
				}
			}
			for _, name := range names {
				for line := pos.Line; line <= last; line++ {
					allow[fmt.Sprintf("%s:%d:%s", pos.Filename, line, name)] = true
				}
			}
		}
	}
	return bad
}

// knownAnalyzer reports whether name is an analyzer of the suite.
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// containsFuncLit reports whether n's subtree holds a function literal.
func containsFuncLit(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// splitDirectiveNames splits a directive's argument text into the
// analyzer-name list and the justification. Names are comma-separated; a
// comma may be followed by whitespace, so the list extends across fields
// while each consumed field ends in a comma. Everything after the list is
// the justification.
func splitDirectiveNames(rest string) (names []string, reason string) {
	fields := strings.Fields(rest)
	for i, f := range fields {
		for _, name := range strings.Split(f, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if !strings.HasSuffix(f, ",") {
			return names, strings.Join(fields[i+1:], " ")
		}
	}
	return names, ""
}

// pathHasSuffix reports whether import path p ends with the slash-separated
// suffix (matching whole path segments, so "internal/sim" matches
// "odyssey/internal/sim" but not "odyssey/internal/simx").
func pathHasSuffix(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}
