package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NondeterminismAnalyzer encodes the repo's headline guarantee —
// byte-identical results at any -parallel, on any platform — as three
// source properties:
//
//  1. math/rand (v1 or v2) is banned everywhere, tests included: no
//     cross-release sequence guarantee exists, so every random draw
//     must come from internal/hashutil keyed streams. This retires
//     the CI grep.
//  2. time.Now/time.Since/time.Sleep are banned in result-producing
//     packages: wall-clock reads there leak timing into results.
//     Observational uses (latency stats on a non-result path) carry
//     //lint:allow nondeterminism <reason>.
//  3. Ranging over a map while appending to a slice, writing a
//     builder/writer, or returning from inside the body is the
//     classic map-iteration-order leak; an append is rescued by a
//     subsequent sort of the same slice in the enclosing block.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc:  "bans math/rand, wall-clock reads in result-producing packages, and map-iteration-order leaks",
	Run:  runNondeterminism,
}

// resultPackages are the module-relative packages whose outputs are
// results (figures, tables, scores, placements): wall-clock reads
// there are findings unless explicitly allowed as observational.
var resultPackages = []string{
	"internal/core",
	"internal/pattern",
	"internal/contention",
	"internal/stats",
	"internal/hashutil",
	"internal/xgft",
	"internal/venus",
	"internal/dimemas",
	"internal/traces",
	"internal/experiments",
	"internal/evaluate",
	"internal/sched",
	"internal/fabric",
	"internal/eventq",
	"internal/fifo",
	"internal/memo",
	"internal/benchcal",
}

// isResultPackage reports whether the package path is in the
// result-producing set (test units of those packages are not).
func isResultPackage(module, path string) bool {
	for _, rel := range resultPackages {
		if path == module+"/"+rel {
			return true
		}
	}
	return false
}

func runNondeterminism(prog *Program, pkg *Package) []Finding {
	var findings []Finding
	resultPkg := isResultPackage(prog.Module, strings.TrimSuffix(pkg.Path, "_test"))
	for _, file := range pkg.Files {
		filePos := pkg.Position(file.Pos())
		test := isTestFile(filePos)
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				findings = append(findings, Finding{
					Pos:      pkg.Position(imp.Pos()),
					Analyzer: "nondeterminism",
					Message:  fmt.Sprintf("import of %s: no cross-release sequence guarantee; use internal/hashutil keyed streams (Stream, Mix, KeyedPerm)", path),
				})
			}
		}
		if test {
			continue // clock and map-order checks cover shipped code only
		}
		if resultPkg {
			findings = append(findings, clockFindings(pkg, file)...)
		}
		findings = append(findings, mapOrderFindings(pkg, file)...)
	}
	return findings
}

// clockFindings flags wall-clock reads in a result-producing package.
func clockFindings(pkg *Package, file *ast.File) []Finding {
	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch fn.Name() {
		case "Now", "Since", "Sleep":
			findings = append(findings, Finding{
				Pos:      pkg.Position(call.Pos()),
				Analyzer: "nondeterminism",
				Message:  fmt.Sprintf("time.%s in result-producing package %s: wall-clock reads leak timing into results; derive values from inputs, or annotate observational uses with //lint:allow nondeterminism <reason>", fn.Name(), pkg.Path),
			})
		}
		return true
	})
	return findings
}

// mapOrderFindings flags map-range bodies whose effects depend on
// iteration order.
func mapOrderFindings(pkg *Package, file *ast.File) []Finding {
	var findings []Finding
	// Visit every statement list so each range statement knows the
	// statements that follow it (the sort-rescue scan).
	var visitList func(list []ast.Stmt)
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				visitList(n.List)
				return false
			case *ast.CaseClause:
				visitList(n.Body)
				return false
			case *ast.CommClause:
				visitList(n.Body)
				return false
			}
			return true
		})
	}
	visitList = func(list []ast.Stmt) {
		for i, stmt := range list {
			rs := rangeStmt(stmt)
			if rs != nil && isMapType(pkg.Info.TypeOf(rs.X)) {
				findings = append(findings, mapRangeBody(pkg, rs, list[i+1:])...)
			}
			visit(stmt)
		}
	}
	visit(file)
	return findings
}

// rangeStmt unwraps a (possibly labeled) range statement.
func rangeStmt(stmt ast.Stmt) *ast.RangeStmt {
	for {
		switch s := stmt.(type) {
		case *ast.LabeledStmt:
			stmt = s.Stmt
		case *ast.RangeStmt:
			return s
		default:
			return nil
		}
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRangeBody inspects one map-range body for order-dependent
// effects. tail is the statement list after the range statement, for
// the sort rescue.
func mapRangeBody(pkg *Package, rs *ast.RangeStmt, tail []ast.Stmt) []Finding {
	var findings []Finding
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			findings = append(findings, Finding{
				Pos:      pkg.Position(n.Pos()),
				Analyzer: "nondeterminism",
				Message:  "return from inside a map range: which entry wins depends on iteration order; collect, sort, then decide",
			})
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || calleeBuiltin(pkg.Info, call) == nil || len(call.Args) == 0 {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				var target types.Object
				if i < len(n.Lhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						target = pkg.Info.ObjectOf(id)
					}
				}
				if target != nil && sortedAfter(pkg, target, tail) {
					continue
				}
				findings = append(findings, Finding{
					Pos:      pkg.Position(call.Pos()),
					Analyzer: "nondeterminism",
					Message:  "append inside a map range without a subsequent sort of the slice: element order follows map iteration order; sort after the loop or iterate a sorted key slice",
				})
			}
		case *ast.CallExpr:
			if f := builderWrite(pkg, n); f != "" {
				findings = append(findings, Finding{
					Pos:      pkg.Position(n.Pos()),
					Analyzer: "nondeterminism",
					Message:  fmt.Sprintf("%s inside a map range: output order follows map iteration order; iterate sorted keys instead", f),
				})
			}
		}
		return true
	})
	return findings
}

// builderWrite reports a call that emits output whose order the map
// iteration decides: Write* on strings.Builder / bytes.Buffer, or any
// fmt print call.
func builderWrite(pkg *Package, call *ast.CallExpr) string {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !strings.HasPrefix(fn.Name(), "Write") {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer", "bufio.Writer":
		return named.Obj().Name() + "." + fn.Name()
	}
	return ""
}

// sortedAfter reports whether a statement after the range sorts the
// append target (sort.* or slices.Sort* with the target among the
// arguments) — the canonical collect-then-sort idiom.
func sortedAfter(pkg *Package, target types.Object, tail []ast.Stmt) bool {
	for _, stmt := range tail {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkgPath := fn.Pkg().Path()
			if pkgPath != "sort" && pkgPath != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ok := false
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, isIdent := a.(*ast.Ident); isIdent && pkg.Info.ObjectOf(id) == target {
						ok = true
					}
					return !ok
				})
				if ok {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
