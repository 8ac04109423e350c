package eventq

import (
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

// calendar is what the differential test drives: the Queue and the
// sort oracle below.
type calendar interface {
	At(Time, func())
	After(Time, func())
	Now() Time
	Len() int
	Step() bool
	RunUntil(Time)
}

// sortedCalendar is the ordering contract spelled out: pending events
// kept as one slice, stably sorted by (at, seq), executed from the
// front. Inserting after every entry with at <= t is what a stable
// sort does with the newest seq.
type sortedCalendar struct {
	now     Time
	pending []event
}

func (c *sortedCalendar) Now() Time { return c.now }
func (c *sortedCalendar) Len() int  { return len(c.pending) }

func (c *sortedCalendar) At(t Time, fn func()) {
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].at > t })
	c.pending = append(c.pending, event{})
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = event{at: t, fn: fn}
}

func (c *sortedCalendar) After(d Time, fn func()) { c.At(c.now+d, fn) }

func (c *sortedCalendar) Step() bool {
	if len(c.pending) == 0 {
		return false
	}
	e := c.pending[0]
	c.pending = c.pending[1:]
	c.now = e.at
	e.fn()
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

// playScript drives a calendar through a keyed-random schedule built
// to reach every container path: bursts of thousands of events tied at
// one time, callbacks that schedule from inside the run, three hot
// delays, a pool of delays larger than the lane count, zero delays,
// absolute times that fall between the entries of a lane, and a driver
// that alternates single steps with RunUntil deadlines landing
// mid-lane. What an event schedules depends only on its id, so two
// calendars that agree on order see identical scripts.
func playScript(q calendar, seed uint64) []ran {
	const budget = 30000
	hot := [...]Time{32, 64, 4096}
	var pool [3 * numLanes]Time
	for i := range pool {
		pool[i] = Time(100 + 37*i)
	}
	var log []ran
	scheduled := 0
	var schedule func(how uint64)
	schedule = func(how uint64) {
		if scheduled >= budget {
			return
		}
		id := scheduled
		scheduled++
		fn := func() {
			log = append(log, ran{id: id, at: q.Now(), pending: q.Len()})
			rng := hashutil.NewStream(seed, uint64(id))
			for k := rng.Intn(3); k > 0; k-- {
				schedule(rng.Next())
			}
		}
		pick := int(how >> 8)
		switch how % 8 {
		case 0, 1, 2:
			q.After(hot[pick%len(hot)], fn)
		case 3, 4:
			q.After(pool[pick%len(pool)], fn)
		case 5:
			q.After(0, fn)
		default:
			q.At(q.Now()+Time(pick%5000), fn)
		}
	}
	for i := 0; i < 2000; i++ {
		scheduled++
		id := scheduled - 1
		q.At(100, func() { log = append(log, ran{id: id, at: q.Now(), pending: q.Len()}) })
	}
	for i := 0; i < 1500; i++ {
		schedule(0) // After(32) from t=0: one lane, one time
	}
	driver := hashutil.NewStream(seed, 0xd71)
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
	for seed := uint64(1); seed <= 12; seed++ {
		var q Queue
		got := playScript(&q, seed)
		want := playScript(&sortedCalendar{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, oracle has %d", seed, len(got), len(want))
		}
		events := uint64(0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d is %+v, oracle has %+v", seed, i, got[i], want[i])
			}
			if want[i].id >= 0 {
				events++
			}
		}
		if events < 10000 {
			t.Fatalf("seed %d: script ran only %d events", seed, events)
		}
		if q.Processed() != events {
			t.Errorf("seed %d: Processed() = %d, ran %d events", seed, q.Processed(), events)
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
