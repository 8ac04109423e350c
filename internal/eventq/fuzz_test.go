package eventq

import "testing"

// playBytes reads a script two bytes at a time, a command and its
// argument, and drives the calendar with it: schedule a closure or an
// op at a delay the argument picks (a dozen multiples of 32, more than
// there are lanes, or a scattered larger one), take one step, or run
// to a deadline the argument sets. Every third event schedules a
// follow-up in the other form, so events also enter the calendar from
// inside the run. The calendar drains at the end. What an event does
// depends only on its id, so two calendars that agree on order log
// the same entries.
func playBytes(q calendar, script []byte) []ran {
	var log []ran
	next := 0
	budget := 4 * len(script)
	delay := func(arg byte) Time {
		if arg < 192 {
			return Time(arg%12) * 32
		}
		return Time(arg) * 7
	}
	var schedule func(t Time, op bool)
	act := func(id int) {
		log = append(log, ran{id: id, at: q.Now(), pending: q.Len()})
		if id%3 == 0 && next < budget {
			schedule(q.Now()+delay(byte(id*37)), id%2 == 0)
		}
	}
	schedule = func(t Time, op bool) {
		id := next
		next++
		if op {
			q.AtOp(t, uint32(id))
		} else {
			q.At(t, func() { act(id) })
		}
	}
	q.SetDispatch(func(op uint32) { act(int(op)) })
	for i := 0; i+1 < len(script); i += 2 {
		cmd, arg := script[i], script[i+1]
		switch cmd % 4 {
		case 0:
			schedule(q.Now()+delay(arg), false)
		case 1:
			schedule(q.Now()+delay(arg), true)
		case 2:
			q.Step()
		default:
			q.RunUntil(q.Now() + Time(arg)*8)
		}
		log = append(log, ran{id: -1, at: q.Now(), pending: q.Len()})
	}
	for q.Step() {
	}
	return log
}

// FuzzCalendarMatchesSorted holds the Queue to the sort oracle on
// arbitrary scripts of At, AtOp, Step and RunUntil: the same events
// must run in the same order at the same times with the same number
// pending, and every closure slot must be free once the calendar
// drains.
func FuzzCalendarMatchesSorted(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 2, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 3, 0})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 0, 200, 0, 250, 3, 40, 2, 0})
	f.Add([]byte{0, 5, 3, 255, 1, 5, 0, 5, 2, 0, 3, 1, 1, 193, 0, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q Queue
		got := playBytes(&q, script)
		want := playBytes(&sortedCalendar{}, script)
		if len(got) != len(want) {
			t.Fatalf("%d log entries, oracle has %d", len(got), len(want))
		}
		events := uint64(0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d is %+v, oracle has %+v", i, got[i], want[i])
			}
			if want[i].id >= 0 {
				events++
			}
		}
		if q.Processed() != events {
			t.Errorf("Processed() = %d, ran %d events", q.Processed(), events)
		}
		if len(q.fns) != len(q.freeFns) {
			t.Errorf("%d closure slots, %d free after the drain", len(q.fns), len(q.freeFns))
		}
	})
}
