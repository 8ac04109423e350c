package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotpathAnalyzer is the static complement to the AllocsPerRun pins:
// a function annotated //repro:hotpath (the resolve paths, the wire
// codec, the obs recording primitives) may not
//
//   - call anything in fmt,
//   - create a closure (every FuncLit is a potential allocation),
//   - use defer (a per-call cost the resolve loop cannot afford),
//   - box a concrete value into an interface (the hidden allocation
//     AllocsPerRun pins keep catching one PR too late), or
//   - call any function that is not itself //repro:hotpath-annotated,
//     on the allowlist below, or a builtin.
//
// Cold error exits are exempt: calls and conversions inside a return
// statement of a function whose last result is error only run when
// the call has already failed, so error construction there (including
// fmt.Errorf) does not tax the steady state.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "bounds what //repro:hotpath functions may call, allocate, and box",
	Run:  runHotpath,
}

// hotpathAllowedPkgs are packages every function of which is safe on
// the hot path: atomics, bit tricks, and the binary codec helpers —
// all allocation-free by construction.
var hotpathAllowedPkgs = map[string]bool{
	"sync/atomic":     true,
	"math/bits":       true,
	"encoding/binary": true,
	"errors":          true,
	"unsafe":          true,
}

// hotpathAllowedFuncs are individually vetted stdlib functions (by
// FuncID). Extend this table when a new hot path needs a new
// primitive; the row is the review record.
var hotpathAllowedFuncs = map[string]bool{
	"time.Now":                    true, // monotonic read, no allocation
	"time.Since":                  true,
	"time.(Duration).Nanoseconds": true,
	"io.ReadFull":                 true, // loops on Read, allocates nothing
	"sync.(Mutex).TryLock":        true, // one CAS, never waits (Lock stays off the list: a hot path may not block)
	"sync.(Mutex).Unlock":         true, // pairs with TryLock
}

func runHotpath(prog *Program, pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "repro:hotpath") {
				continue
			}
			findings = append(findings, checkHotFunc(prog, pkg, fd)...)
		}
	}
	return findings
}

// errorResult reports whether the function's last result is error.
func errorResult(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	t := res.At(res.Len() - 1).Type()
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func checkHotFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Finding {
	var findings []Finding
	report := func(n ast.Node, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:      pkg.Position(n.Pos()),
			Analyzer: "hotpath",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	coldExits := false
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			coldExits = errorResult(sig)
		}
	}
	name := fd.Name.Name

	// cold marks nodes inside return statements of error-returning hot
	// functions: the error exit, off the steady-state path.
	cold := make(map[ast.Node]bool)
	if coldExits {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				ast.Inspect(ret, func(m ast.Node) bool {
					if m != nil {
						cold[m] = true
					}
					return true
				})
				return false
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			report(n, "%s is //repro:hotpath but uses defer (per-call overhead on the hot path)", name)
		case *ast.FuncLit:
			report(n, "%s is //repro:hotpath but creates a closure (potential allocation per call)", name)
			return false // the closure body is not the hot path
		case *ast.CallExpr:
			if cold[n] {
				return true
			}
			findings = append(findings, checkHotCall(prog, pkg, name, n)...)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				if cold[rhs] {
					continue
				}
				dst := pkg.Info.TypeOf(n.Lhs[i])
				if boxes(dst, pkg.Info.TypeOf(rhs), rhs) {
					report(rhs, "%s is //repro:hotpath but boxes a %s into %s (interface allocation)", name, pkg.Info.TypeOf(rhs), dst)
				}
			}
		}
		return true
	})
	return findings
}

// checkHotCall vets one call in a hot function: the callee must be a
// builtin, allowlisted, or itself hotpath-annotated, and its
// arguments must not box into interface parameters.
func checkHotCall(prog *Program, pkg *Package, name string, call *ast.CallExpr) []Finding {
	var findings []Finding
	report := func(n ast.Node, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:      pkg.Position(n.Pos()),
			Analyzer: "hotpath",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// Type conversions: only interface conversions box.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(tv.Type, pkg.Info.TypeOf(call.Args[0]), call.Args[0]) {
			report(call, "%s is //repro:hotpath but converts %s to interface %s (boxing allocation)", name, pkg.Info.TypeOf(call.Args[0]), tv.Type)
		}
		return findings
	}
	if calleeBuiltin(pkg.Info, call) != nil {
		return findings
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		report(call, "%s is //repro:hotpath but makes a dynamic call (function value or method expression); hot calls must be static so the analyzer can follow them", name)
		return findings
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			report(call, "%s is //repro:hotpath but calls %s through an interface (dynamic dispatch the analyzer cannot follow)", name, fn.Name())
			return findings
		}
	}
	id := FuncID(fn)
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case pkgPath == "fmt":
		report(call, "%s is //repro:hotpath but calls %s.%s (fmt formats through reflection and allocates)", name, pkgPath, fn.Name())
	case hotpathAllowedPkgs[pkgPath], hotpathAllowedFuncs[id], prog.Hotpath[id]:
		// vetted
	default:
		report(call, "%s is //repro:hotpath but calls %s, which is neither //repro:hotpath nor on the hotpath allowlist", name, id)
	}
	// Interface parameters box concrete arguments.
	if sig != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					break // f(xs...) passes the slice through, no boxing
				}
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if boxes(pt, pkg.Info.TypeOf(arg), arg) {
				report(arg, "%s is //repro:hotpath but boxes argument %d of %s into interface %s", name, i, fn.Name(), pt)
			}
		}
	}
	return findings
}

// boxes reports whether assigning src (with static type srcType) to a
// destination of type dst allocates an interface box: dst is an
// interface, src is a non-interface non-nil concrete value.
func boxes(dst, srcType types.Type, src ast.Expr) bool {
	if dst == nil || srcType == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := srcType.Underlying().(*types.Interface); ok {
		return false
	}
	if b, ok := srcType.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}
