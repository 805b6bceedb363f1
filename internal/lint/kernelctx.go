package lint

import (
	"go/ast"
	"go/types"
)

// Kernelctx protects the kernel's one-runnable-at-a-time handshake. Each
// process is an iter.Pull coroutine, and the two ends iter.Pull hands out,
// stored as Proc.next and Proc.yield, are the only synchronization in the
// simulation: next passes control kernel -> process, yield passes it back.
// Exactly four functions may touch them - (*Kernel).transfer, (*Proc).park,
// (*Kernel).Spawn (which builds the coroutine), and (*Kernel).Shutdown (the
// final kill switch). A call anywhere else runs a process out of its
// (at, seq) turn - the schedule then no longer follows from the seed - or
// makes iter.Pull panic on a switch issued from the wrong side.
//
// Within internal/sim the analyzer flags any use of a next/yield struct
// field of function type outside the blessed four. Outside internal/sim it
// flags any next/yield/park/transfer selector on a sim type (possible only
// via code cloned out of the package, but the rule is cheap to state).
//
// The deterministic packages get one more rule: a `go` statement must not
// hand a kernel-carrying value (a *sim.Kernel, *sim.Proc, or any struct
// holding one, such as env.Rig) to the new goroutine — by closure capture,
// by argument, or as a method-value receiver. A kernel is single-threaded
// by construction; the parallel trial scheduler gets its speedup from each
// worker building a private rig, and sharing one across goroutines is a
// data race over all simulation state.
var Kernelctx = &Analyzer{
	Name: "kernelctx",
	Doc:  "confine a process's next/yield coroutine ends to transfer, park, Spawn, and Shutdown; forbid sharing a kernel across goroutines",
	Run:  runKernelctx,
}

// kernelctxBlessed are the only functions allowed to switch a process
// coroutine directly.
var kernelctxBlessed = map[string]bool{
	"transfer": true,
	"park":     true,
	"Spawn":    true,
	"Shutdown": true,
}

func runKernelctx(pass *Pass) {
	if pathHasSuffix(pass.Pkg.Path, "internal/sim") {
		runKernelctxInside(pass)
		return
	}
	runKernelctxOutside(pass)
	if inAnyPackage(pass.Pkg.Path, detrandPackages) {
		runKernelShare(pass)
	}
}

// runKernelctxInside enforces the in-package rule: the baton fields only
// inside the blessed functions.
func runKernelctxInside(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && kernelctxBlessed[fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, isSel := n.(*ast.SelectorExpr)
				if !isSel || !isBatonField(pass.Pkg.Info, sel) {
					return true
				}
				fn := "package scope"
				if ok {
					fn = fd.Name.Name
				}
				pass.Reportf(sel.Pos(),
					"use of coroutine baton field %s in %s: only transfer, park, Spawn, and Shutdown may switch a process",
					sel.Sel.Name, fn)
				return true
			})
		}
	}
}

// isBatonField reports whether sel selects a next/yield struct field of
// function type - one end of a process's coroutine - so that unrelated
// locals or non-function fields sharing the names don't trip the rule.
func isBatonField(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "next" && sel.Sel.Name != "yield" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	_, isFunc := s.Type().Underlying().(*types.Signature)
	return isFunc
}

// runKernelctxOutside flags references to the handshake internals from any
// other package.
func runKernelctxOutside(pass *Pass) {
	pass.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "next" && name != "yield" && name != "park" && name != "transfer" {
			return true
		}
		s, ok := pass.Pkg.Info.Selections[sel]
		if !ok {
			return true
		}
		recv := s.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return true
		}
		if !pathHasSuffix(named.Obj().Pkg().Path(), "internal/sim") {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is kernel-internal: the scheduling handshake may only be driven from inside internal/sim",
			named.Obj().Name(), name)
		return true
	})
}

// runKernelShare flags `go` statements in the deterministic packages
// (internal/sim excepted - the kernel itself legitimately starts process
// goroutines) that leak a kernel-carrying value into the new goroutine.
func runKernelShare(pass *Pass) {
	info := pass.Pkg.Info
	pass.inspect(func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		for _, arg := range g.Call.Args {
			if t := info.TypeOf(arg); t != nil && carriesKernel(t) {
				pass.Reportf(arg.Pos(),
					"goroutine argument has kernel-carrying type %s: a kernel is single-threaded; give each worker a private rig",
					t)
			}
		}
		switch fun := g.Call.Fun.(type) {
		case *ast.FuncLit:
			reportKernelCaptures(pass, fun)
		case *ast.SelectorExpr:
			// Method value: `go rig.Worker()` smuggles the receiver in.
			if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal && carriesKernel(s.Recv()) {
				pass.Reportf(fun.Pos(),
					"goroutine method receiver has kernel-carrying type %s: a kernel is single-threaded; give each worker a private rig",
					s.Recv())
			}
		}
		return true
	})
}

// reportKernelCaptures walks a goroutine's function literal and reports
// every free variable of kernel-carrying type it closes over. Variables
// declared inside the literal are the goroutine's own; struct fields are
// reached through their receiver and judged there.
func reportKernelCaptures(pass *Pass, fl *ast.FuncLit) {
	info := pass.Pkg.Info
	reported := map[*types.Var]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true // the goroutine's own declaration, not a capture
		}
		if carriesKernel(v.Type()) {
			reported[v] = true
			pass.Reportf(id.Pos(),
				"goroutine captures %s (kernel-carrying type %s): a kernel is single-threaded; give each worker a private rig",
				v.Name(), v.Type())
		}
		return true
	})
}

// carriesKernel reports whether t is, points to, or (one struct level deep)
// contains a sim.Kernel or sim.Proc. One level is enough for the shapes
// that occur in practice - *sim.Kernel itself, and rig-like aggregates with
// a kernel field.
func carriesKernel(t types.Type) bool {
	if isKernelNamed(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isKernelNamed(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isKernelNamed reports whether t (possibly behind one pointer) is the
// sim.Kernel or sim.Proc named type.
func isKernelNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/sim") &&
		(obj.Name() == "Kernel" || obj.Name() == "Proc")
}
