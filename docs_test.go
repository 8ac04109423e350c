package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestSpanInventoryDocumented pins the tracing docs to the code: every
// span name an instrumented package exports via SpanNames() must
// appear verbatim in README.md and docs/ARCHITECTURE.md, so renaming
// or adding a span without updating the operator docs fails CI.
func TestSpanInventoryDocumented(t *testing.T) {
	var inventory []string
	inventory = append(inventory, wire.SpanNames()...)
	inventory = append(inventory, fabric.SpanNames()...)
	inventory = append(inventory, sched.SpanNames()...)
	inventory = append(inventory, evaluate.SpanNames()...)
	if len(inventory) == 0 {
		t.Fatal("no span names exported — the tracing layer lost its inventory")
	}
	// The incremental-evaluation instruments ride the same drift
	// check: the "Incremental evaluation" docs sections must name
	// every metric the placement delta path records.
	inventory = append(inventory, evaluate.DeltaMetricNames()...)
	// So do the histograms that split time-to-new-generation, and the
	// swap event's fields that say what the swap cost.
	inventory = append(inventory, fabric.SwapObsNames()...)
	inventory = append(inventory, fabric.SwapEventKeys()...)
	// And the ones that show the wire server's response coalescing.
	inventory = append(inventory, wire.FlushObsNames()...)
	// And what telemetry's count shards cost (the fabric exports no
	// accessor for three names; TestShardMetricsScraped holds these
	// spellings to the registry).
	inventory = append(inventory, "fabric_telemetry_shards", "fabric_telemetry_folds_total", "fabric_telemetry_folded_cells_total")

	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(body)
		for _, name := range inventory {
			if !strings.Contains(text, name) {
				t.Errorf("%s does not document span %q", doc, name)
			}
		}
		// And the other way round for what was deleted: the daemon's
		// scripted personality, the materializing batch resolve and its
		// histogram, and the experiments package's default table cache
		// (its accessor's name is spelled in two halves so that a grep
		// for it over the tree finds nothing) must not linger in the
		// operator docs.
		for _, gone := range []string{"fabricd -demo", "`ResolveBatch`", "fabric_resolve_batch_ns", "Shared" + "TableCache", "process-wide"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s still mentions %q, which no longer exists", doc, gone)
			}
		}
	}
}

// TestCommentsCiteExistingDocs keeps "see the design notes" honest:
// every Markdown file a Go comment names must exist, at that path from
// the repository root or from the citing file's directory.
func TestCommentsCiteExistingDocs(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(body), "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, name := range mdName.FindAllString(comment, -1) {
				_, atRoot := os.Stat(name)
				_, beside := os.Stat(filepath.Join(filepath.Dir(path), name))
				if atRoot != nil && beside != nil {
					t.Errorf("%s:%d cites %s, which does not exist", path, i+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeNamesAreUsed keeps the root package to the surface its
// users spell: every exported name repro.go declares must appear as
// repro.<Name> in an example program, a root test file (all of them
// are package repro_test, so a textual match is exact), README.md or
// a docs/*.md page. The binaries under cmd/ import the internal
// packages directly, so a re-export nobody spells is dead code.
func TestFacadeNamesAreUsed(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "repro.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	var sources []string
	for _, glob := range []string{"*_test.go", "README.md", "docs/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, matches...)
	}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var corpus strings.Builder
	for _, path := range sources {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(body)
		corpus.WriteByte('\n')
	}
	text := corpus.String()
	for _, name := range names {
		if !ast.IsExported(name) {
			continue
		}
		if !regexp.MustCompile(`\brepro\.` + name + `\b`).MatchString(text) {
			t.Errorf("repro.go exports %s, which no example, root test or doc spells as repro.%s", name, name)
		}
	}
}
