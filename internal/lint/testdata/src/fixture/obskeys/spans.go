// Span-name fixtures for the obskeys analyzer: names passed to
// trace.Tracer.StartSpan/StartChild as literals,
// variables, out-of-package constants and malformed constants, plus
// well-formed in-package constants that must not be flagged.
package obskeys

import "repro/internal/trace"

const (
	goodSpan = "fixture.resolve"
	badSpan  = "Fixture-Resolve"
)

var varSpan = "fixture.place"

// Trace exercises every span-name shape.
func Trace(tr *trace.Tracer) {
	sc := tr.Root(1, 2)
	s := tr.StartSpan(sc, goodSpan)
	s.End()
	c := tr.StartChild(sc, "fixture.literal") // want: not a constant
	c.End()
	v := tr.StartSpan(sc, varSpan) // want: not a constant
	v.End()
	b := tr.StartSpan(sc, badSpan) // want: bad name
	b.End()
	o := tr.StartSpan(sc, trace.ReasonBudget) // want: constant from another package
	o.End()
}
