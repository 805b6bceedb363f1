package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is a fully loaded, type-checked Go module.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path declared in go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	graph *CallGraph  // lazily built by Graph()
	taint *taintFacts // lazily computed by taintOf()
	hot   *hotFacts   // lazily computed by hotOf()
}

// Package is one type-checked package of the module.
type Package struct {
	Path  string // import path
	Dir   string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checker complaints. Analysis proceeds on the
	// partial information go/types still provides, but callers may want to
	// surface these (a broken tree can hide real findings).
	TypeErrors []error

	// allow maps "line:analyzer" to true for //odylint:allow directives.
	allow map[string]bool
	// badDirectives are the diagnostics for malformed directives.
	badDirectives []Diagnostic
}

func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	return p.allow[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, analyzer)]
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// LoadModule finds go.mod at or above dir, discovers every buildable
// package beneath the module root (skipping testdata, vendor, and hidden
// directories; test files are not loaded - odylint governs library code),
// parses and type-checks them all, and returns the module.
//
// Packages are loaded with the odysseydebug build tag set, so the
// conservation-assertion code behind that tag is linted like everything
// else - untagged builds used to let it escape analysis entirely. The tag
// selects debug_on.go over debug_off.go (they declare the same symbols),
// so type-checking stays consistent.
//
// Standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler, so no compiled export data and no
// external tooling is needed.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ctx := build.Default
	ctx.BuildTags = append(append([]string{}, ctx.BuildTags...), "odysseydebug")
	ld := &loader{
		fset:     fset,
		ctx:      ctx,
		modPath:  modPath,
		root:     root,
		dirs:     map[string]string{},
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
		std:      importer.ForCompiler(fset, "source", nil),
	}
	if err := ld.discover(); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(ld.dirs))
	for p := range ld.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	mod := &Module{Root: root, Path: modPath, Fset: fset}
	for _, p := range paths {
		pkg, err := ld.load(p)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", p, err)
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleLineRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("%s/go.mod: no module line", d)
			}
			return d, string(m[1]), nil
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("no go.mod at or above %s", dir)
		}
	}
}

type loader struct {
	fset     *token.FileSet
	ctx      build.Context // build.Default plus the odysseydebug tag
	modPath  string
	root     string
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*Package
	checking map[string]bool // import-cycle guard
	std      types.Importer
}

// discover walks the module tree recording every directory that contains
// buildable Go files, keyed by import path.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		bp, err := l.ctx.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			// Directories whose files are all excluded by build
			// constraints land here too; they are not packages.
			if strings.Contains(err.Error(), "no buildable Go") {
				return nil
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = path
		return nil
	})
}

// Import implements types.Importer: module-local paths resolve through the
// loader itself; everything else comes from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package (memoized, recursive
// through Import for intra-module dependencies).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("package %s not found in module %s", path, l.modPath)
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}

	pkg := &Package{Path: path, Dir: dir, Name: bp.Name, allow: map[string]bool{}}
	for _, name := range bp.GoFiles {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
		pkg.badDirectives = append(pkg.badDirectives, collectDirectives(l.fset, file, pkg.allow)...)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns partial results alongside errors; analyzers tolerate
	// missing type info, so a semi-broken tree still gets linted.
	tpkg, _ := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg

	l.pkgs[path] = pkg
	return pkg, nil
}
