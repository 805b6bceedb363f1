package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTaintCatchesLaundering is the analyzer's reason to exist: detrand's
// package-local view must stay silent on the laundering fixture, while
// taint reports it with the full call chain down to the source.
func TestTaintCatchesLaundering(t *testing.T) {
	mod := loadFixture(t)

	for _, d := range RunModule(mod, []*Analyzer{Detrand}, nil) {
		if strings.HasSuffix(d.Pos.Filename, "launder.go") {
			t.Errorf("detrand unexpectedly fired on launder.go: %s", d)
		}
	}

	var msgs []string
	for _, d := range RunModule(mod, []*Analyzer{Taint}, nil) {
		if strings.HasSuffix(d.Pos.Filename, "launder.go") {
			msgs = append(msgs, d.Message)
		}
	}
	if len(msgs) != 2 {
		t.Fatalf("taint findings on launder.go = %d, want 2 (call + reference):\n%s",
			len(msgs), strings.Join(msgs, "\n"))
	}
	wantChain := "util.Elapsed -> util.Stamp -> time.Since"
	foundChain, foundRef := false, false
	for _, m := range msgs {
		if strings.Contains(m, wantChain) {
			foundChain = true
		}
		if strings.Contains(m, "reference to") && strings.Contains(m, "util.Stamp -> time.Since") {
			foundRef = true
		}
	}
	if !foundChain {
		t.Errorf("no taint message carries the transitive chain %q:\n%s", wantChain, strings.Join(msgs, "\n"))
	}
	if !foundRef {
		t.Errorf("no taint message reports the creation-edge reference with its chain:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestOdysseydebugFilesLoaded is the loader regression test: files behind
// the odysseydebug build tag must be loaded, their untagged twins must not.
func TestOdysseydebugFilesLoaded(t *testing.T) {
	mod := loadFixture(t)
	var names []string
	for _, pkg := range mod.Pkgs {
		if pkg.Path != "fixture/internal/power" {
			continue
		}
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(mod.Fset.Position(f.Pos()).Filename))
		}
	}
	has := func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has("debugtag_on.go") {
		t.Errorf("odysseydebug-tagged file not loaded; fixture/internal/power files: %v", names)
	}
	if has("debugtag_off.go") {
		t.Errorf("untagged twin loaded despite the odysseydebug tag; files: %v", names)
	}
}

// TestSplitDirectiveNames pins the comma-and-space tolerant name-list
// grammar: the list extends across fields while each field ends in a comma,
// and everything after it is justification.
func TestSplitDirectiveNames(t *testing.T) {
	cases := []struct {
		in     string
		want   []string
		reason string
	}{
		{"detrand reason text", []string{"detrand"}, "reason text"},
		{"detrand,floateq reason", []string{"detrand", "floateq"}, "reason"},
		{"detrand, floateq reason", []string{"detrand", "floateq"}, "reason"},
		{"detrand,  floateq, mapiter why not", []string{"detrand", "floateq", "mapiter"}, "why not"},
		{"detrand", []string{"detrand"}, ""},
		{"detrand,", []string{"detrand"}, ""},
		{"", nil, ""},
	}
	for _, c := range cases {
		got, reason := splitDirectiveNames(c.in)
		if !reflect.DeepEqual(got, c.want) || reason != c.reason {
			t.Errorf("splitDirectiveNames(%q) = %v, %q, want %v, %q", c.in, got, reason, c.want, c.reason)
		}
	}
}

// TestDirectiveCheck: a directive that names no analyzer, names one outside
// All(), or gives no justification is a "directive" diagnostic at the
// comment; well-formed directives report nothing. A malformed directive
// still suppresses the known analyzers it names, and nothing else.
func TestDirectiveCheck(t *testing.T) {
	mod, err := LoadModule("testdata/directives")
	if err != nil {
		t.Fatalf("LoadModule(testdata/directives): %v", err)
	}
	directives := map[string]string{} // "file:line" -> directive comment
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//"+directivePrefix) {
						pos := mod.Fset.Position(c.Pos())
						directives[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = c.Text
					}
				}
			}
		}
	}
	want := wantMarkers(mod)
	got := map[string][]string{} // directive comment -> its diagnostics
	for _, d := range RunModule(mod, All(), nil) {
		if d.Analyzer != directiveAnalyzer {
			key := diagKey(mod.Fset, d)
			if !want[key] {
				t.Errorf("unexpected diagnostic %s", d)
			}
			delete(want, key)
			continue
		}
		text, ok := directives[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]
		if !ok {
			t.Errorf("directive diagnostic away from a directive: %s", d)
		}
		got[text] = append(got[text], d.Message)
	}
	for key := range want {
		t.Errorf("expected diagnostic did not fire: %s", key)
	}
	wantDirective := map[string][]string{
		"//odylint:allow flaoteq fixture: a misspelled analyzer name": {
			`//odylint:allow names unknown analyzer "flaoteq" (see odylint -list)`,
		},
		"//odylint:allow floateq, nosuch fixture: one name outside the suite": {
			`//odylint:allow names unknown analyzer "nosuch" (see odylint -list)`,
		},
		"//odylint:allow floateq": {
			"//odylint:allow floateq gives no justification: say why the rule does not apply here",
		},
		"//odylint:allow": {
			"//odylint:allow names no analyzer",
		},
	}
	if !reflect.DeepEqual(got, wantDirective) {
		t.Errorf("directive diagnostics:\n got %q\nwant %q", got, wantDirective)
	}
}

// TestHotallocReportRanking checks the fixture module's ranked report:
// ranks are contiguous from 1 and in-loop sites sort ahead of the rest.
func TestHotallocReportRanking(t *testing.T) {
	mod := loadFixture(t)
	sites := mod.HotallocReport()
	if len(sites) < 3 {
		t.Fatalf("fixture hot report has %d site(s), want >= 3: %+v", len(sites), sites)
	}
	sawCold := false
	for i, s := range sites {
		if s.Rank != i+1 {
			t.Errorf("site %d has rank %d, want %d", i, s.Rank, i+1)
		}
		if s.Root == "" || s.Func == "" || s.Kind == "" {
			t.Errorf("site %+v missing root/func/kind", s)
		}
		if !s.InLoop {
			sawCold = true
		} else if sawCold {
			t.Errorf("in-loop site %+v ranked below an out-of-loop site", s)
		}
	}
}

// TestRealModuleHotPath loads the actual repository and checks the
// acceptance floor: the ranked hot-path report carries at least 5 sites.
// Skipped under -short: it type-checks the whole module.
func TestRealModuleHotPath(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule(../..): %v", err)
	}
	sites := mod.HotallocReport()
	if len(sites) < 5 {
		t.Errorf("real-module hot report has %d site(s), want >= 5", len(sites))
	}
	for i, s := range sites {
		if s.Rank != i+1 {
			t.Fatalf("site %d has rank %d, want %d", i, s.Rank, i+1)
		}
	}
}
