package bench

import (
	"fmt"
	"sync"
)

// maxListedFailures bounds how many failures a report spells out.
const maxListedFailures = 10

// Tally is a workload's failure accounting: every operation attempted
// is counted, and every error frame, timeout, refused connection,
// HTTP status >= 400, oracle mismatch or stale generation is counted
// against it. The first few failures are kept verbatim for the report.
// Safe for concurrent use (churn_mixed drives two connections).
type Tally struct {
	mu        sync.Mutex
	attempted int      // guarded by mu
	failed    int      // guarded by mu
	first     []string // guarded by mu
}

// Attempt counts n operations about to be tried.
func (t *Tally) Attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// Fail counts one failed operation and records why.
func (t *Tally) Fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if len(t.first) < maxListedFailures {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// Counts returns the operations attempted and failed so far.
func (t *Tally) Counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// Failures returns the first recorded failure messages.
func (t *Tally) Failures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.first...)
}
