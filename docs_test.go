package repro_test

import (
	"os"
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
		// histogram must not linger in the operator docs.
		for _, gone := range []string{"fabricd -demo", "`ResolveBatch`", "fabric_resolve_batch_ns"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s still mentions %q, which no longer exists", doc, gone)
			}
		}
	}
}
