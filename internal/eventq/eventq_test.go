package eventq

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	if !q.Run(0) {
		t.Fatal("run did not drain")
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("final time = %d, want 30", q.Now())
	}
	if q.Processed() != 3 {
		t.Errorf("processed = %d", q.Processed())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	q.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got[:i+1])
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var q Queue
	var times []Time
	q.At(10, func() {
		times = append(times, q.Now())
		q.After(5, func() { times = append(times, q.Now()) })
	})
	q.Run(0)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	q.At(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	q.At(5, func() {})
}

func TestRunBudget(t *testing.T) {
	var q Queue
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		q.After(1, reschedule)
	}
	q.At(0, reschedule)
	if q.Run(50) {
		t.Fatal("unbounded chain reported drained")
	}
	if count != 50 {
		t.Errorf("executed %d events, want 50", count)
	}
}

// TestRunBudgetBoundary: a budget that covers every pending event
// drains the calendar and says so; one short of it leaves that event
// pending and reports exhaustion.
func TestRunBudgetBoundary(t *testing.T) {
	for _, tc := range []struct {
		budget  uint64
		drained bool
		left    int
	}{{3, true, 0}, {4, true, 0}, {2, false, 1}, {1, false, 2}} {
		var q Queue
		q.SetDispatch(func(uint32) {})
		q.At(1, func() {})
		q.AtOp(2, 0)
		q.At(3, func() {})
		if got := q.Run(tc.budget); got != tc.drained || q.Len() != tc.left {
			t.Errorf("Run(%d) on 3 events = %v with %d pending, want %v with %d", tc.budget, got, q.Len(), tc.drained, tc.left)
		}
	}
}

// TestOpsAndClosuresShareOneOrder: ops and closures scheduled at one
// time run in scheduling order, and the dispatch function sees each
// op exactly as it was scheduled.
func TestOpsAndClosuresShareOneOrder(t *testing.T) {
	var q Queue
	var got []uint32
	q.SetDispatch(func(op uint32) { got = append(got, op) })
	q.AtOp(5, 7)
	q.At(5, func() { got = append(got, 100) })
	q.AfterOp(5, closureOp-1)
	q.At(1, func() { got = append(got, 101) })
	q.Run(0)
	want := []uint32{101, 7, 100, closureOp - 1}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
	for _, schedule := range []func(){
		func() { q.AtOp(10, closureOp) },
		func() { q.AfterOp(10, closureOp|3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an op with the closure bit did not panic")
				}
			}()
			schedule()
		}()
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		q.At(at, func() { got = append(got, at) })
	}
	q.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2", len(got))
	}
	if q.Now() != 12 {
		t.Errorf("clock = %d, want 12", q.Now())
	}
	q.RunUntil(100)
	if len(got) != 4 {
		t.Errorf("ran %d events total, want 4", len(got))
	}
	if q.Len() != 0 {
		t.Errorf("queue still has %d events", q.Len())
	}
}

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
	if !q.Run(0) {
		t.Error("Run on empty queue returned false")
	}
	q.RunUntil(50)
	if q.Now() != 50 {
		t.Errorf("RunUntil did not advance the idle clock: %d", q.Now())
	}
}

func TestQuickHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := hashutil.NewStream(uint64(seed))
		var q Queue
		n := 1 + rng.Intn(200)
		want := make([]Time, n)
		var got []Time
		for i := range want {
			at := Time(rng.Intn(1000))
			want[i] = at
			q.At(at, func() { got = append(got, q.Now()) })
		}
		q.Run(0)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != n {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// calendar is what the differential tests drive: the Queue and the
// sort oracle below.
type calendar interface {
	SetDispatch(func(op uint32))
	At(Time, func())
	After(Time, func())
	AtOp(Time, uint32)
	AfterOp(Time, uint32)
	Now() Time
	Len() int
	Step() bool
	RunUntil(Time)
}

// sortedCalendar is the ordering contract spelled out: pending events
// kept as one slice, stably sorted by (at, seq), executed from the
// front, whichever form scheduled them. Inserting after every entry
// with at <= t is what a stable sort does with the newest seq.
type sortedCalendar struct {
	now      Time
	pending  []oracleEvent
	dispatch func(op uint32)
}

// oracleEvent is a pending entry of the oracle: an op, or a closure
// when fn is set.
type oracleEvent struct {
	at Time
	op uint32
	fn func()
}

func (c *sortedCalendar) SetDispatch(fn func(op uint32)) { c.dispatch = fn }
func (c *sortedCalendar) Now() Time                      { return c.now }
func (c *sortedCalendar) Len() int                       { return len(c.pending) }

func (c *sortedCalendar) insert(e oracleEvent) {
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].at > e.at })
	c.pending = append(c.pending, oracleEvent{})
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = e
}

func (c *sortedCalendar) At(t Time, fn func())    { c.insert(oracleEvent{at: t, fn: fn}) }
func (c *sortedCalendar) After(d Time, fn func()) { c.At(c.now+d, fn) }
func (c *sortedCalendar) AtOp(t Time, op uint32)  { c.insert(oracleEvent{at: t, op: op}) }
func (c *sortedCalendar) AfterOp(d Time, op uint32) {
	c.AtOp(c.now+d, op)
}

func (c *sortedCalendar) Step() bool {
	if len(c.pending) == 0 {
		return false
	}
	e := c.pending[0]
	c.pending = c.pending[1:]
	c.now = e.at
	if e.fn != nil {
		e.fn()
	} else {
		c.dispatch(e.op)
	}
	return true
}

func (c *sortedCalendar) RunUntil(deadline Time) {
	for len(c.pending) > 0 && c.pending[0].at <= deadline {
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// ran is one executed event as the script saw it.
type ran struct {
	id      int
	at      Time
	pending int
}

// Event forms a script schedules in: closures only, ops only, or
// either, drawn per event.
const (
	formClosures = iota
	formOps
	formMixed
)

// playScript drives a calendar through a keyed-random schedule built
// to reach every container path: bursts of thousands of events tied at
// one time, events that schedule from inside the run, three hot
// delays, a pool of delays larger than the lane count, zero delays,
// absolute times that fall between the entries of a lane, and a driver
// that alternates single steps with RunUntil deadlines landing
// mid-lane. An event is scheduled as a closure or as an op carrying
// its id, as form says; what it does depends only on its id, so two
// calendars that agree on order see identical scripts.
func playScript(q calendar, seed uint64, form int) []ran {
	const budget = 30000
	hot := [...]Time{32, 64, 4096}
	var pool [3 * numLanes]Time
	for i := range pool {
		pool[i] = Time(100 + 37*i)
	}
	var log []ran
	scheduled := 0
	var schedule func(how uint64)
	act := func(id int) {
		log = append(log, ran{id: id, at: q.Now(), pending: q.Len()})
		if id < 2000 {
			return // the initial burst schedules nothing
		}
		rng := hashutil.NewStream(seed, uint64(id))
		for k := rng.Intn(3); k > 0; k-- {
			schedule(rng.Next())
		}
	}
	q.SetDispatch(func(op uint32) { act(int(op)) })
	// at schedules event id at absolute time t in the form how picks.
	at := func(t Time, id int, how uint64) {
		if form == formOps || form == formMixed && how>>40&1 == 1 {
			q.AtOp(t, uint32(id))
			return
		}
		q.At(t, func() { act(id) })
	}
	schedule = func(how uint64) {
		if scheduled >= budget {
			return
		}
		id := scheduled
		scheduled++
		pick := int(how >> 8 & 0xffff)
		switch how % 8 {
		case 0, 1, 2:
			at(q.Now()+hot[pick%len(hot)], id, how)
		case 3, 4:
			at(q.Now()+pool[pick%len(pool)], id, how)
		case 5:
			at(q.Now(), id, how)
		default:
			at(q.Now()+Time(pick%5000), id, how)
		}
	}
	driver := hashutil.NewStream(seed, 0xd71)
	for i := 0; i < 2000; i++ {
		scheduled++
		at(100, scheduled-1, driver.Next())
	}
	for i := 0; i < 1500; i++ {
		schedule(driver.Next() &^ 0xffffff) // After(32) from t=0: one lane, one time
	}
	for i := 0; i < 400; i++ {
		schedule(driver.Next())
	}
	for q.Len() > 0 {
		if driver.Intn(4) == 0 {
			q.RunUntil(q.Now() + Time(driver.Intn(3000)))
		} else {
			for k := driver.Intn(50); k >= 0; k-- {
				q.Step()
			}
		}
		log = append(log, ran{id: -1, at: q.Now(), pending: q.Len()})
	}
	return log
}

func TestCalendarMatchesSortOracle(t *testing.T) {
	for _, form := range []int{formClosures, formOps, formMixed} {
		for seed := uint64(1); seed <= 12; seed++ {
			var q Queue
			got := playScript(&q, seed, form)
			want := playScript(&sortedCalendar{}, seed, form)
			if len(got) != len(want) {
				t.Fatalf("form %d seed %d: %d log entries, oracle has %d", form, seed, len(got), len(want))
			}
			events := uint64(0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("form %d seed %d: entry %d is %+v, oracle has %+v", form, seed, i, got[i], want[i])
				}
				if want[i].id >= 0 {
					events++
				}
			}
			if events < 10000 {
				t.Fatalf("form %d seed %d: script ran only %d events", form, seed, events)
			}
			if q.Processed() != events {
				t.Errorf("form %d seed %d: Processed() = %d, ran %d events", form, seed, q.Processed(), events)
			}
			if len(q.fns) != len(q.freeFns) {
				t.Errorf("form %d seed %d: %d closure slots, %d free after the drain", form, seed, len(q.fns), len(q.freeFns))
			}
		}
	}
}

// TestLanesStaySortedAcrossRebinding re-binds every lane many times
// over: each round uses a fresh set of delays, more than there are
// lanes, while events of earlier rounds are still pending.
func TestLanesStaySortedAcrossRebinding(t *testing.T) {
	var q Queue
	var got []Time
	note := func() { got = append(got, q.Now()) }
	for round := 0; round < 50; round++ {
		for k := 0; k < numLanes+3; k++ {
			q.After(Time(1+round*7+k*13), note)
			q.After(Time(1+round*7+k*13), note)
		}
		q.Step()
		q.Step()
	}
	q.Run(0)
	if len(got) != 50*2*(numLanes+3) {
		t.Fatalf("ran %d events", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("events ran out of time order")
	}
}

// TestEventHoldsNoPointer: a pending event is plain words, so the
// lanes and the heap are memory the collector skips and scheduling
// stores no pointer. A func or pointer field here would bring back a
// write barrier per scheduled event.
func TestEventHoldsNoPointer(t *testing.T) {
	if p := pointerPath(reflect.TypeOf(event{}), "event"); p != "" {
		t.Errorf("%s holds a pointer", p)
	}
}

// pointerPath names the first field of t, by its path from name, whose
// kind holds a pointer the collector traces; "" means t holds none.
func pointerPath(t reflect.Type, name string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return name + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(t.Elem(), name+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type, name+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}
