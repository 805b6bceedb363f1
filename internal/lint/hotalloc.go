package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Hotalloc maps per-event allocation pressure on the kernel's hot path.
// Scenario throughput starts with knowing where the allocations are: every
// &Event{...}, closure, append-growth, and interface-boxing conversion
// executed per simulated event is garbage the collector must chase at soak
// scale. This analyzer computes the set of functions reachable from the
// event loop and flags allocation sites inside them.
//
// Reachability roots:
//
//   - (*sim.Kernel).Run - the dispatch loop itself;
//   - (*power.Accountant).integrate - the power integrator, invoked on
//     every state change;
//   - every function value registered with the kernel's scheduling API
//     (Kernel.At/After/Every/Spawn, Group.Go, PSResource.UseAsync):
//     the loop invokes these dynamically through stored fields, which a
//     static call graph cannot see, so registration is treated as a root.
//
// From the roots, reachability follows both call edges and creation edges
// (a closure built on the hot path is assumed to run on it - that is what
// it was built for). Allocation kinds flagged: composite literals, make,
// new, append, closure construction, string concatenation, and implicit
// interface boxing of non-pointer arguments.
//
// Diagnostics are confined to the kernel-core packages (internal/sim,
// internal/power, internal/trace), where a site that must stay carries an
// inline allow with its reason; the module-wide ranked report
// (HotallocReport, also under -json and -hotreport) covers every hot
// function so the long tail stays visible without failing the gate.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-event allocations in functions reachable from the kernel event loop and power integrator",
	Run:  runHotalloc,
}

// hotallocCorePackages are the package suffixes whose hot-path allocations
// become diagnostics; elsewhere they appear only in the ranked report.
var hotallocCorePackages = []string{
	"internal/sim",
	"internal/power",
	"internal/trace",
}

// hotallocRegistrars maps (receiver type, method) pairs whose func-typed
// arguments are event-loop callbacks. All live in internal/sim.
var hotallocRegistrars = map[string]map[string]bool{
	"Kernel":     {"At": true, "After": true, "Every": true, "Spawn": true},
	"Group":      {"Go": true},
	"PSResource": {"Use": true, "UseAsync": true},
	"WaitList":   {},
}

// HotSite is one ranked allocation site on the kernel hot path.
type HotSite struct {
	Rank   int    `json:"rank"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Func   string `json:"func"`
	Kind   string `json:"kind"`
	InLoop bool   `json:"in_loop"`
	Depth  int    `json:"depth"`
	Root   string `json:"root"`
	Detail string `json:"detail"`
}

// hotFacts is the memoized module-level hot-path computation.
type hotFacts struct {
	depth map[*Node]int    // min edge distance from a root
	root  map[*Node]string // which root reaches the node at that depth
	sites []HotSite        // ranked, module-wide
}

// HotallocReport returns the module-wide ranked allocation report: every
// allocation site inside a hot-reachable function, most urgent first
// (allocations inside loops, then shallowest distance from the event loop).
func (m *Module) HotallocReport() []HotSite { return m.hotOf().sites }

func (m *Module) hotOf() *hotFacts {
	if m.hot != nil {
		return m.hot
	}
	g := m.Graph()
	hf := &hotFacts{depth: map[*Node]int{}, root: map[*Node]string{}}

	// Roots: named hot entry points...
	type queued struct {
		n     *Node
		depth int
		root  string
	}
	var queue []queued
	seed := func(n *Node, root string) {
		if n == nil {
			return
		}
		if _, seen := hf.depth[n]; seen {
			return
		}
		hf.depth[n] = 0
		hf.root[n] = root
		queue = append(queue, queued{n, 0, root})
	}
	for _, n := range g.Nodes {
		if n.Func == nil {
			continue
		}
		if isMethodOn(n.Func, "internal/sim", "Kernel", "Run") {
			seed(n, "(*Kernel).Run")
		}
		if isMethodOn(n.Func, "internal/power", "Accountant", "integrate") {
			seed(n, "(*Accountant).integrate")
		}
	}
	// ...plus every callback registered with the scheduling API, wherever
	// the registration happens (experiment setup code registers callbacks
	// that then run in event context for the whole simulation).
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Kind != EdgeCall || e.To.Func == nil || !isRegistrar(e.To.Func) {
				continue
			}
			for _, arg := range e.Call.Args {
				if cb := resolveFuncArg(g, n.Pkg, arg); cb != nil {
					seed(cb, "callback via "+e.To.Name())
				}
			}
		}
	}

	// BFS over call + creation edges.
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, e := range q.n.Out {
			if _, seen := hf.depth[e.To]; seen {
				continue
			}
			hf.depth[e.To] = q.depth + 1
			hf.root[e.To] = q.root
			queue = append(queue, queued{e.To, q.depth + 1, q.root})
		}
	}

	// Scan every hot body for allocation sites.
	for _, n := range g.Nodes {
		d, hot := hf.depth[n]
		if !hot {
			continue
		}
		for _, s := range allocSites(n) {
			pos := m.Fset.Position(s.pos)
			hf.sites = append(hf.sites, HotSite{
				File: relPath(m.Root, pos.Filename), Line: pos.Line,
				Func: n.Name(), Kind: s.kind, InLoop: s.inLoop,
				Depth: d, Root: hf.root[n], Detail: s.detail,
			})
		}
	}
	sort.SliceStable(hf.sites, func(i, j int) bool {
		a, b := hf.sites[i], hf.sites[j]
		if a.InLoop != b.InLoop {
			return a.InLoop
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	for i := range hf.sites {
		hf.sites[i].Rank = i + 1
	}
	m.hot = hf
	return hf
}

func runHotalloc(pass *Pass) {
	if !inAnyPackage(pass.Pkg.Path, hotallocCorePackages) {
		return
	}
	hf := pass.Module.hotOf()
	g := pass.Module.Graph()
	for _, n := range g.Nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		d, hot := hf.depth[n]
		if !hot {
			continue
		}
		for _, s := range allocSites(n) {
			loop := ""
			if s.inLoop {
				loop = " inside a loop"
			}
			pass.Reportf(s.pos,
				"%s%s on the kernel hot path (%s, %d call(s) below %s): %s",
				s.kind, loop, n.Name(), d, hf.root[n], s.detail)
		}
	}
}

type allocSite struct {
	pos    token.Pos
	kind   string
	inLoop bool
	detail string
}

// allocSites scans one body (literals excluded - they are their own nodes)
// for allocating constructs.
func allocSites(n *Node) []allocSite {
	info := n.Pkg.Info
	var sites []allocSite
	var walk func(node ast.Node, inLoop, inComposite bool)
	walk = func(node ast.Node, inLoop, inComposite bool) {
		switch node := node.(type) {
		case nil:
			return
		case *ast.FuncLit:
			sites = append(sites, allocSite{node.Pos(), "closure", inLoop, "function literal allocates its capture environment"})
			return // body is a separate node
		case *ast.ForStmt:
			walkChildren(node, func(ch ast.Node) { walk(ch, true, false) })
			return
		case *ast.RangeStmt:
			walkChildren(node, func(ch ast.Node) { walk(ch, true, false) })
			return
		case *ast.CompositeLit:
			if !inComposite {
				sites = append(sites, allocSite{node.Pos(), "composite literal", inLoop, typeDetail(info, node)})
			}
			walkChildren(node, func(ch ast.Node) { walk(ch, inLoop, true) })
			return
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringExpr(info, node.X) && !isConstExpr(info, node) {
				sites = append(sites, allocSite{node.Pos(), "string concat", inLoop, "string + allocates the result"})
				// Only flag the outermost + of a chain.
				walkChildren(node, func(ch ast.Node) { walk(ch, inLoop, true) })
				return
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, isB := info.Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "make":
						sites = append(sites, allocSite{node.Pos(), "make", inLoop, typeDetail(info, node)})
					case "new":
						sites = append(sites, allocSite{node.Pos(), "new", inLoop, typeDetail(info, node)})
					case "append":
						sites = append(sites, allocSite{node.Pos(), "append", inLoop, "append may grow the backing array"})
					}
				}
			}
			for _, box := range boxedArgs(info, node) {
				sites = append(sites, box.withLoop(inLoop))
			}
		}
		walkChildren(node, func(ch ast.Node) { walk(ch, inLoop, inComposite && isCompositePart(ch)) })
	}
	for _, stmt := range n.Body.List {
		walk(stmt, false, false)
	}
	return sites
}

func (s allocSite) withLoop(inLoop bool) allocSite {
	s.inLoop = inLoop
	return s
}

// walkChildren applies fn to node's immediate children (ast.Inspect with a
// depth-1 cutoff).
func walkChildren(node ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(node, func(ch ast.Node) bool {
		if first {
			first = false
			return true
		}
		if ch != nil {
			fn(ch)
		}
		return false
	})
}

func isCompositePart(n ast.Node) bool {
	switch n.(type) {
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	}
	return false
}

// boxedArgs returns allocation sites for arguments implicitly converted to
// interface parameters where the conversion allocates (concrete,
// non-pointer, non-interface values; pointers and nils box for free).
func boxedArgs(info *types.Info, call *ast.CallExpr) []allocSite {
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return nil
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var sites []allocSite
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isConstExpr(info, arg) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // single-word reference values: no allocation
		case *types.Basic:
			if at.Underlying().(*types.Basic).Kind() == types.UntypedNil {
				continue
			}
		}
		sites = append(sites, allocSite{arg.Pos(), "interface boxing", false,
			fmt.Sprintf("%s value boxed into %s parameter", types.TypeString(at, nil), types.TypeString(pt, nil))})
	}
	return sites
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeDetail(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	return "value"
}

func isMethodOn(f *types.Func, pkgSuffix, typeName, method string) bool {
	if f.Name() != method || f.Pkg() == nil || !pathHasSuffix(f.Pkg().Path(), pkgSuffix) {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

func isRegistrar(f *types.Func) bool {
	if f.Pkg() == nil || !pathHasSuffix(f.Pkg().Path(), "internal/sim") {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	methods, ok := hotallocRegistrars[named.Obj().Name()]
	return ok && methods[f.Name()]
}

// resolveFuncArg resolves a func-typed call argument to its node: a
// literal, a named function, or a method value.
func resolveFuncArg(g *CallGraph, pkg *Package, arg ast.Expr) *Node {
	arg = ast.Unparen(arg)
	if t := pkg.Info.TypeOf(arg); t != nil {
		if _, isSig := t.Underlying().(*types.Signature); !isSig {
			return nil
		}
	}
	switch arg := arg.(type) {
	case *ast.FuncLit:
		return g.lits[arg]
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[arg].(*types.Func); ok {
			return g.decls[f]
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[arg.Sel].(*types.Func); ok {
			return g.decls[f]
		}
	}
	return nil
}

func relPath(root, path string) string {
	if len(path) > len(root)+1 && path[:len(root)] == root && path[len(root)] == '/' {
		return path[len(root)+1:]
	}
	return path
}
