package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one fixture subtree rooted under testdata/src.
func loadFixture(t *testing.T, rel string) *Program {
	t.Helper()
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	dir := filepath.Join("internal", "lint", "testdata", "src", filepath.FromSlash(rel))
	prog, err := Load(root, module, []string{dir + "/..."})
	if err != nil {
		t.Fatalf("Load(%s): %v", rel, err)
	}
	return prog
}

// diag is the comparable form of a finding: file base name, line, and
// analyzer.
func diag(f Finding) string {
	return strings.Join([]string{filepath.Base(f.Pos.Filename), itoa(f.Pos.Line), f.Analyzer}, ":")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// assertDiags runs one analyzer set over a fixture and compares the
// exact (file:line:analyzer) golden set.
func assertDiags(t *testing.T, prog *Program, analyzers []*Analyzer, want []string) map[string]int {
	t.Helper()
	findings, suppressed := prog.Run(analyzers)
	var got []string
	for _, f := range findings {
		got = append(got, diag(f))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics mismatch\n got: %v\nwant: %v", got, want)
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
	return suppressed
}

func TestNondeterminismFixture(t *testing.T) {
	prog := loadFixture(t, "repro/internal/core")
	assertDiags(t, prog, []*Analyzer{NondeterminismAnalyzer}, []string{
		"nondet.go:8:nondeterminism",  // math/rand import
		"nondet.go:16:nondeterminism", // time.Now
		"nondet.go:17:nondeterminism", // time.Sleep
		"nondet.go:28:nondeterminism", // append without sort
		"nondet.go:47:nondeterminism", // return inside map range
		"nondet.go:57:nondeterminism", // builder write
	})
}

func TestHotpathFixture(t *testing.T) {
	prog := loadFixture(t, "fixture/hotpath")
	assertDiags(t, prog, []*Analyzer{HotpathAnalyzer}, []string{
		"hot.go:23:hotpath", // fmt.Println
		"hot.go:23:hotpath", // ...and boxing its argument into any
		"hot.go:30:hotpath", // defer
		"hot.go:35:hotpath", // closure
		"hot.go:43:hotpath", // interface boxing
		"hot.go:52:hotpath", // unvetted call
	})
}

func TestLocksFixture(t *testing.T) {
	prog := loadFixture(t, "fixture/locks")
	assertDiags(t, prog, []*Analyzer{LocksAnalyzer}, []string{
		"locks.go:26:locks", // Bad: unguarded read
		"locks.go:35:locks", // BadBranch: lock not held on every path
		"locks.go:47:locks", // BadAfterUnlock
		"locks.go:67:locks", // Peek: mixed plain/atomic
	})
}

func TestObskeysFixture(t *testing.T) {
	prog := loadFixture(t, "fixture/obskeys")
	assertDiags(t, prog, []*Analyzer{ObskeysAnalyzer}, []string{
		"obskeys.go:20:obskeys", // string literal
		"obskeys.go:21:obskeys", // variable
		"obskeys.go:22:obskeys", // malformed constant value
		"spans.go:21:obskeys",   // span name literal
		"spans.go:23:obskeys",   // span name variable
		"spans.go:25:obskeys",   // malformed span name constant
		"spans.go:27:obskeys",   // constant from another package
	})
}

func TestBannedFixture(t *testing.T) {
	prog := loadFixture(t, "fixture/bannedfix")
	assertDiags(t, prog, []*Analyzer{BannedAnalyzer}, []string{
		"banned.go:8:banned",  // reflect import
		"banned.go:16:banned", // os.Exit
		"banned.go:21:banned", // panic in library path
	})
}

func TestBannedExemptInCmd(t *testing.T) {
	prog := loadFixture(t, "repro/cmd/toolfix")
	assertDiags(t, prog, []*Analyzer{BannedAnalyzer}, nil)
}

func TestAllowSuppression(t *testing.T) {
	prog := loadFixture(t, "fixture/allowed")
	suppressed := assertDiags(t, prog, Analyzers, []string{
		"allowed.go:23:banned", // mismatched analyzer name does not suppress
		"allowed.go:28:banned", // malformed allow suppresses nothing
		"allowed.go:28:lint",   // ...and is itself a finding
	})
	if suppressed["banned"] != 2 {
		t.Errorf("suppressed[banned] = %d, want 2 (trailing + line-above)", suppressed["banned"])
	}
}

// TestModuleClean is the self-test the CI job depends on: the repo's
// own tree must produce zero findings under the full analyzer set.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow")
	}
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	prog, err := Load(root, module, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings, _ := prog.Run(Analyzers)
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(prog.Hotpath) == 0 {
		t.Error("no //repro:hotpath facts collected from the module; annotations missing?")
	}
}

func TestFuncIDAndHelpers(t *testing.T) {
	prog := loadFixture(t, "fixture/hotpath")
	if len(prog.Packages) != 1 {
		t.Fatalf("packages = %d, want 1", len(prog.Packages))
	}
	pkg := prog.Packages[0]
	if pkg.Path != "fixture/hotpath" {
		t.Errorf("fixture path = %q, want %q (testdata/src rewriting)", pkg.Path, "fixture/hotpath")
	}
	if !prog.Hotpath["fixture/hotpath.hotHelper"] {
		t.Errorf("hotpath fact base missing hotHelper: %v", prog.Hotpath)
	}
	if pkg.Fset() == nil {
		t.Error("Fset is nil")
	}
}

func TestLoadErrors(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	if _, err := Load(root, module, []string{"no/such/dir"}); err == nil {
		t.Error("Load of a missing directory succeeded")
	}
	if _, _, err := FindModuleRoot("/"); err == nil {
		t.Error("FindModuleRoot above any module succeeded")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "banned", Message: "m"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	if got, want := f.String(), "x.go:3:7: [banned] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
