package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
)

// maxTextBytes bounds a job's name and app: the name is kept in the
// job, in its job.submit journal event and in every /jobs reply.
const maxTextBytes = 256

// request reads one request's values under one rule, and is the only
// code that parses them. The first refusal is kept. A read that fails
// returns its low bound or its default, so a bound computed from an
// earlier value (index's from level) stays in range. A handler reads
// what it needs, then asks refused once.
type request struct {
	r   *http.Request
	q   url.Values
	err error
}

func read(r *http.Request) *request { return &request{r: r, q: r.URL.Query()} }

// keep records err unless an earlier refusal is already kept.
func (q *request) keep(err error) {
	if q.err == nil {
		q.err = err
	}
}

// refused answers 400 with the kept refusal, if there is one.
func (q *request) refused(w http.ResponseWriter) bool {
	if q.err != nil {
		reply(w, http.StatusBadRequest, errJSON{q.err.Error()})
	}
	return q.err != nil
}

// has reports whether the parameter is present and non-empty.
func (q *request) has(name string) bool { return q.q.Get(name) != "" }

// intIn reads a required integer in [lo, hi].
func (q *request) intIn(name string, lo, hi int) int {
	v, err := strconv.Atoi(q.q.Get(name))
	switch {
	case err != nil:
		q.keep(fmt.Errorf("bad or missing %q: %v", name, err))
	case v < lo || v > hi:
		q.keep(fmt.Errorf("%q=%d out of range [%d,%d]", name, v, lo, hi))
	default:
		return v
	}
	return lo
}

// optional settles an optional parameter parsed as v: def when it is
// absent or empty, v when ok, and def plus the refusal "bad <name>:
// want <want>" otherwise.
func optional[T any](q *request, name, want string, def, v T, ok bool) T {
	switch {
	case !q.has(name):
		return def
	case !ok:
		q.keep(fmt.Errorf("bad %q: want %s", name, want))
		return def
	}
	return v
}

// unsigned reads an optional unsigned integer.
func (q *request) unsigned(name string, def uint64) uint64 {
	v, err := strconv.ParseUint(q.q.Get(name), 10, 64)
	return optional(q, name, "an unsigned integer", def, v, err == nil)
}

// count reads an optional non-negative integer.
func (q *request) count(name string, def int) int {
	v, err := strconv.Atoi(q.q.Get(name))
	return optional(q, name, "a non-negative integer", def, v, err == nil && v >= 0)
}

// positive reads an optional integer in [1, hi].
func (q *request) positive(name string, def, hi int64) int64 {
	v, err := strconv.ParseInt(q.q.Get(name), 10, 64)
	return optional(q, name, fmt.Sprintf("an integer in [1,%d]", hi), def, v, err == nil && v >= 1 && v <= hi)
}

// finite reads an optional finite non-negative float. NaN fails every
// comparison, so a NaN threshold would pass every check made with it.
func (q *request) finite(name string, def float64) float64 {
	v, err := strconv.ParseFloat(q.q.Get(name), 64)
	return optional(q, name, "a finite non-negative float", def, v, err == nil && v >= 0 && !math.IsInf(v, 1))
}

// boolean reads an optional boolean.
func (q *request) boolean(name string, def bool) bool {
	v, err := strconv.ParseBool(q.q.Get(name))
	return optional(q, name, "a boolean", def, v, err == nil)
}

// text reads an optional string of at most maxTextBytes bytes.
func (q *request) text(name string) string {
	v := q.q.Get(name)
	return optional(q, name, fmt.Sprintf("at most %d bytes", maxTextBytes), "", v, len(v) <= maxTextBytes)
}

// id reads the {id} path value as a job id.
func (q *request) id() uint64 {
	v, err := strconv.ParseUint(q.r.PathValue("id"), 10, 64)
	if err != nil {
		q.keep(fmt.Errorf("bad job id %q", q.r.PathValue("id")))
	}
	return v
}
