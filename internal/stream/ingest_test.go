package stream

import (
	"reflect"
	"testing"
)

// TestDayClocks drives the two day clocks directly, one occasion at a
// time, the way the ingest loop does: ask due until it says no, then ask
// today. Each case is a script of occasions with the closes they must
// yield and the day an update would land on afterwards.
func TestDayClocks(t *testing.T) {
	const day = 86400
	cal := Calendar{Days: []int{0, 1, 2, 5}, Times: []uint32{100 * day, 101 * day, 102 * day, 105 * day}}
	const noDay = -1 << 31 // today() must fail

	type step struct {
		ev     clockEvent
		ts     uint32 // record timestamp, or the wall clock at a tick
		closes []int
		today  int
	}
	var wall uint32
	cases := []struct {
		name  string
		clock dayClock
		steps []step
	}{
		{"calendar/quiet days close before the record that skips them", &calendarClock{cal: cal}, []step{
			{atRecord, 100*day + 5, nil, 0},
			{atRecord, 105*day + 1, []int{0, 1, 2}, 5},
			{atEnd, 0, []int{5}, noDay},
			{atEnd, 0, nil, noDay},
		}},
		{"calendar/late record lands on the day in flight", &calendarClock{cal: cal}, []step{
			{atRecord, 101 * day, []int{0}, 1},
			{atRecord, 100*day + 7, nil, 1},
			{atRecord, 3, nil, 1},
		}},
		{"calendar/a record between boundaries stays on the earlier day", &calendarClock{cal: cal}, []step{
			{atRecord, 104*day + day - 1, []int{0, 1}, 2},
		}},
		{"calendar/end closes the day in flight and the quiet tail", &calendarClock{cal: cal}, []step{
			{atRecord, 101*day + 9, []int{0}, 1},
			{atEnd, 0, []int{1, 2, 5}, noDay},
		}},
		{"calendar/resume starts DaysClosed days in", &calendarClock{cal: cal, idx: 2}, []step{
			{atRecord, 102*day + 1, nil, 2},
			{atRecord, 106 * day, []int{2}, 5},
		}},
		{"calendar/every day closed with an update left over", &calendarClock{cal: cal, idx: len(cal.Days)}, []step{
			{atRecord, 105*day + 1, nil, noDay},
			{atEnd, 0, nil, noDay},
		}},
		{"calendar/ticks close nothing", &calendarClock{cal: cal}, []step{
			{atTick, 200 * day, nil, 0},
		}},
		{"utc/first record's day is adopted, intervening days all close", &utcClock{cur: -1, now: func() uint32 { return wall }}, []step{
			{atRecord, 12000*day + 5, nil, 12000},
			{atRecord, 12003 * day, []int{12000, 12001, 12002}, 12003},
		}},
		{"utc/late record lands on the day in flight", &utcClock{cur: -1, now: func() uint32 { return wall }}, []step{
			{atRecord, 12001 * day, nil, 12001},
			{atRecord, 12000*day + 77, nil, 12001},
		}},
		{"utc/ticks close by wall clock, but only once a record opened a day", &utcClock{cur: -1, now: func() uint32 { return wall }}, []step{
			{atTick, 13000 * day, nil, -1},
			{atRecord, 12000*day + 100, nil, 12000},
			{atTick, 12000*day + day - 1, nil, 12000},
			{atTick, 12001 * day, []int{12000}, 12001},
			{atTick, 12001*day + 1, nil, 12001},
			{atTick, 11000 * day, nil, 12001},
		}},
		{"utc/end closes the day in flight once when asked to", &utcClock{cur: -1, now: func() uint32 { return wall }, closeFinal: true}, []step{
			{atRecord, 12000 * day, nil, 12000},
			{atEnd, 0, []int{12000}, 12000},
			{atEnd, 0, nil, 12000},
		}},
		{"utc/end closes nothing unasked", &utcClock{cur: -1, now: func() uint32 { return wall }}, []step{
			{atRecord, 12000 * day, nil, 12000},
			{atEnd, 0, nil, 12000},
		}},
		{"utc/end of an empty feed closes nothing", &utcClock{cur: -1, now: func() uint32 { return wall }, closeFinal: true}, []step{
			{atEnd, 0, nil, -1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, st := range tc.steps {
				ts := st.ts
				if st.ev == atTick {
					wall, ts = st.ts, 0
				}
				var closes []int
				for d, ok := tc.clock.due(st.ev, ts); ok; d, ok = tc.clock.due(st.ev, ts) {
					if closes = append(closes, d); len(closes) > 16 {
						t.Fatalf("step %d: due never ran dry: %v", i, closes)
					}
				}
				if !reflect.DeepEqual(closes, st.closes) {
					t.Fatalf("step %d: closed %v, want %v", i, closes, st.closes)
				}
				today, err := tc.clock.today()
				if (err != nil) != (st.today == noDay) || (err == nil && today != st.today) {
					t.Fatalf("step %d: today = %d, %v; want %d", i, today, err, st.today)
				}
			}
		})
	}
}
