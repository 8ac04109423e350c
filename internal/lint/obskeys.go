package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// ObskeysAnalyzer keeps the metric, journal and span namespace
// greppable: every metric name, journal event type and span name
// handed to internal/obs or internal/trace must be an in-package
// string constant whose value matches ^[a-z][a-z0-9_.]*$ (optionally
// followed by one {label="value"} suffix). A constant name is a
// stable grep anchor, so the README metric inventory and the
// docs/ARCHITECTURE.md span inventory cannot drift from the code; a
// fmt.Sprintf'd or concatenated name can.
var ObskeysAnalyzer = &Analyzer{
	Name: "obskeys",
	Doc:  "requires metric names, journal event types and span names to be in-package constants matching ^[a-z][a-z0-9_.]*$",
	Run:  runObskeys,
}

// obsNameFunc describes one vetted entry point: the defining package
// (as a suffix under the module path) and the index of the name
// argument.
type obsNameFunc struct {
	pkg string
	arg int
}

// obsNameFuncs are the internal/obs and internal/trace entry points
// whose string argument is a metric name, journal event type or span
// name.
var obsNameFuncs = map[string]obsNameFunc{
	"Counter":      {pkg: "/internal/obs", arg: 0},
	"Gauge":        {pkg: "/internal/obs", arg: 0},
	"Histogram":    {pkg: "/internal/obs", arg: 0},
	"CounterFunc":  {pkg: "/internal/obs", arg: 0},
	"GaugeFunc":    {pkg: "/internal/obs", arg: 0},
	"Record":       {pkg: "/internal/obs", arg: 0}, // Journal.Record(typ, ...)
	"StartSpan":    {pkg: "/internal/trace", arg: 1},
	"StartChild":   {pkg: "/internal/trace", arg: 1},
	"StartRequest": {pkg: "/internal/trace", arg: 1},
}

var (
	obsNameRE  = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)
	obsLabelRE = regexp.MustCompile(`^\{[a-z][a-z0-9_]*="[^"{}]*"\}$`)
)

func runObskeys(prog *Program, pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		if isTestFile(pkg.Position(file.Pos())) {
			continue // tests may mint throwaway names
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			spec, ok := obsNameFuncs[fn.Name()]
			if !ok || fn.Pkg().Path() != prog.Module+spec.pkg {
				return true
			}
			// The defining package may route names through its own
			// wrappers (trace.StartChild delegates to StartSpan with a
			// variable); call sites elsewhere are what must be constant.
			if pkg.Pkg == fn.Pkg() || len(call.Args) <= spec.arg {
				return true
			}
			callee := strings.TrimPrefix(spec.pkg, "/internal/") + "." + fn.Name()
			findings = append(findings, checkObsName(pkg, callee, call.Args[spec.arg])...)
			return true
		})
	}
	return findings
}

// checkObsName validates one name argument: in-package named constant,
// well-formed value.
func checkObsName(pkg *Package, callee string, arg ast.Expr) []Finding {
	pos := pkg.Position(arg.Pos())
	ident, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return []Finding{{
			Pos:      pos,
			Analyzer: "obskeys",
			Message:  fmt.Sprintf("name passed to %s must be an in-package string constant (got an expression); constants keep the metric inventory greppable", callee),
		}}
	}
	obj := pkg.Info.ObjectOf(ident)
	cst, ok := obj.(*types.Const)
	if !ok {
		return []Finding{{
			Pos:      pos,
			Analyzer: "obskeys",
			Message:  fmt.Sprintf("name %q passed to %s must be a string constant, not a variable", ident.Name, callee),
		}}
	}
	if cst.Pkg() != pkg.Pkg {
		return []Finding{{
			Pos:      pos,
			Analyzer: "obskeys",
			Message:  fmt.Sprintf("constant %s passed to %s is declared outside this package; declare metric names in the package that owns them", ident.Name, callee),
		}}
	}
	if cst.Val().Kind() != constant.String {
		return nil // not a string constant: the typechecker already rejected it
	}
	val := constant.StringVal(cst.Val())
	base, label := val, ""
	if i := strings.IndexByte(val, '{'); i >= 0 {
		base, label = val[:i], val[i:]
	}
	if !obsNameRE.MatchString(base) || (label != "" && !obsLabelRE.MatchString(label)) {
		return []Finding{{
			Pos:      pos,
			Analyzer: "obskeys",
			Message:  fmt.Sprintf("metric name %q does not match ^[a-z][a-z0-9_.]*$ (with optional {label=\"value\"} suffix)", val),
		}}
	}
	return nil
}
