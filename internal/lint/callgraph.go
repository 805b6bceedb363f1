package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Whole-module call graph.
//
// The per-package analyzers inherited from PR 1 judge one syntax tree at a
// time, which is exactly the blind spot the taint and hotalloc analyzers
// exist to close: a time.Now laundered through a helper package, or an
// allocation three calls below the kernel event loop, is invisible without
// reachability. The graph built here is deliberately simple - static call
// edges plus "creation" edges for function values - and errs toward
// over-approximation: an edge that might execute is an edge.
//
// Nodes are function bodies: declared functions and methods (keyed by their
// *types.Func) and function literals (keyed by the *ast.FuncLit). Two edge
// kinds connect them:
//
//   - EdgeCall: a static call site. Direct calls, package-qualified calls,
//     and method calls with a statically known receiver type all resolve;
//     interface dispatch and calls through function-typed variables do not
//     (no points-to analysis), which the analyzers compensate for with the
//     creation edges below.
//   - EdgeCreate: the body references a module function or closes over a
//     function literal without calling it - taking a method value, passing
//     a callback, assigning a function to a variable. For taint, a creation
//     edge propagates like a call (building a nondeterministic closure is
//     as suspect as calling it); for hotalloc, it approximates the dynamic
//     dispatch the kernel's event loop performs on every stored callback.
type CallGraph struct {
	// Nodes in deterministic order: package order, then file position.
	Nodes []*Node

	decls map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
}

// EdgeKind distinguishes a static call from a function-value reference.
type EdgeKind int

const (
	EdgeCall EdgeKind = iota
	EdgeCreate
)

// Node is one function body in the module.
type Node struct {
	Func *types.Func  // nil for function literals
	Lit  *ast.FuncLit // nil for declared functions
	Pkg  *Package     // package the body lives in
	Body *ast.BlockStmt
	Pos  token.Pos

	Out []*Edge // outgoing edges in source order

	// enclosing is the declared function a literal lexically sits inside
	// (nil for declared functions and package-level literals).
	enclosing *Node
}

// Edge is one reference from a body to another module function.
type Edge struct {
	From *Node
	To   *Node
	Kind EdgeKind
	Pos  token.Pos
	// Call is the call expression for EdgeCall edges (nil for EdgeCreate),
	// kept so analyzers can inspect arguments - hotalloc uses it to find
	// callbacks registered with the kernel's scheduling API.
	Call *ast.CallExpr
}

// Name renders the node for diagnostics: "(*sim.Kernel).Run",
// "experiment.RunGoal", or "func literal in experiment.RunGoal". Package
// qualifiers are shortened to the last import-path segment.
func (n *Node) Name() string {
	if n.Func != nil {
		return shortFuncName(n.Func)
	}
	if n.enclosing != nil {
		return "func literal in " + n.enclosing.Name()
	}
	return "func literal in " + pkgBase(n.Pkg.Path)
}

func shortFuncName(f *types.Func) string {
	base := pkgBase(f.Pkg().Path())
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			ptr = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			return "(" + ptr + base + "." + named.Obj().Name() + ")." + f.Name()
		}
	}
	return base + "." + f.Name()
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Graph returns the module's call graph, built on first use and memoized.
// RunModule is single-goroutine, so a plain lazy field suffices.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildGraph(m)
	}
	return m.graph
}

func buildGraph(m *Module) *CallGraph {
	g := &CallGraph{
		decls: map[*types.Func]*Node{},
		lits:  map[*ast.FuncLit]*Node{},
	}

	// Pass 1: a node per declared function with a body.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Func: fn, Pkg: pkg, Body: fd.Body, Pos: fd.Pos()}
				g.decls[fn] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}

	// Pass 2: walk each body, creating literal nodes and edges.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				walkBody(g, pkg, g.decls[fn], fd.Body)
			}
		}
	}
	return g
}

// walkBody records edges from `from` for every call and function reference
// in body, descending into nested literals as their own nodes.
func walkBody(g *CallGraph, pkg *Package, from *Node, body *ast.BlockStmt) {
	info := pkg.Info

	// resolve returns the node a call-position expression statically
	// resolves to, or nil for dynamic calls.
	resolve := func(fun ast.Expr) *Node {
		switch fun := ast.Unparen(fun).(type) {
		case *ast.Ident:
			if f, ok := info.Uses[fun].(*types.Func); ok {
				return g.decls[f]
			}
		case *ast.SelectorExpr:
			if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
				return g.decls[f]
			}
		case *ast.FuncLit:
			return g.lits[fun]
		}
		return nil
	}

	// litNode makes (or returns) the node for a literal in this body.
	litNode := func(fl *ast.FuncLit) *Node {
		if n := g.lits[fl]; n != nil {
			return n
		}
		n := &Node{Lit: fl, Pkg: pkg, Body: fl.Body, Pos: fl.Pos(), enclosing: outermost(from)}
		g.lits[fl] = n
		g.Nodes = append(g.Nodes, n)
		return n
	}

	// callFuns marks expressions appearing in call position so the
	// reference cases below do not double-count them as creations.
	callFuns := map[ast.Expr]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal is a creation at its own position, and its body is
			// walked as a separate node.
			ln := litNode(n)
			from.Out = append(from.Out, &Edge{From: from, To: ln, Kind: EdgeCreate, Pos: n.Pos()})
			walkBody(g, pkg, ln, n.Body)
			return false // its body belongs to ln, not from
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if fl, ok := fun.(*ast.FuncLit); ok {
				// Immediately invoked literal: a call edge, not a creation.
				ln := litNode(fl)
				from.Out = append(from.Out, &Edge{From: from, To: ln, Kind: EdgeCall, Pos: n.Pos(), Call: n})
				walkBody(g, pkg, ln, fl.Body)
				for _, arg := range n.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			callFuns[fun] = true
			if to := resolve(fun); to != nil {
				from.Out = append(from.Out, &Edge{From: from, To: to, Kind: EdgeCall, Pos: n.Pos(), Call: n})
			}
			return true
		case *ast.SelectorExpr:
			// A selector resolving to a module function outside call
			// position is a method value or package-qualified reference.
			if !callFuns[n] {
				if f, ok := info.Uses[n.Sel].(*types.Func); ok {
					if to := g.decls[f]; to != nil {
						from.Out = append(from.Out, &Edge{From: from, To: to, Kind: EdgeCreate, Pos: n.Pos()})
					}
				}
			}
			ast.Inspect(n.X, walk) // the Sel leaf must not re-trigger the Ident case
			return false
		case *ast.Ident:
			if callFuns[n] {
				return true
			}
			if f, ok := info.Uses[n].(*types.Func); ok {
				if to := g.decls[f]; to != nil {
					from.Out = append(from.Out, &Edge{From: from, To: to, Kind: EdgeCreate, Pos: n.Pos()})
				}
			}
			return true
		}
		return true
	}
	for _, stmt := range body.List {
		ast.Inspect(stmt, walk)
	}
}

// outermost returns the declared-function ancestor of n (n itself if it is
// one), used to label literals by their lexical home.
func outermost(n *Node) *Node {
	for n != nil && n.Func == nil {
		n = n.enclosing
	}
	return n
}
