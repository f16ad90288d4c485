package bench

import (
	"slices"
	"testing"
	"time"
)

func TestScheduleStampsFromDueTimeAndTracksLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, time.Millisecond, 4)
	if got := s.due(250); !got.Equal(start.Add(250 * time.Millisecond)) {
		t.Fatalf("due(250) = %v", got)
	}
	if got := s.offset(3000); got != 3*time.Second {
		t.Fatalf("offset(3000) = %v", got)
	}
	// send plays one operation: ready `late` after its due time, with a
	// write that takes `write`.
	send := func(s *schedule, i int, late, write time.Duration) {
		at := s.due(i).Add(late)
		s.ready(i, at)
		s.wrote(at.Add(write))
	}
	const us = time.Microsecond
	// On time, 4 ms late, 1 ms late; an early start (the clock read just
	// before the due instant) is not lateness.
	send(s, 0, 0, 10*us)
	send(s, 1, 4*time.Millisecond, 10*us)
	send(s, 2, time.Millisecond, 10*us)
	send(s, 3, -us, 10*us)
	if want := []time.Duration{0, 4 * time.Millisecond, time.Millisecond, 0}; !slices.Equal(s.late, want) {
		t.Errorf("late = %v, want %v", s.late, want)
	}
	// Latency runs from the due time, so the generator's own 4 ms of
	// lateness is charged to the operation: observed 6 ms after it was
	// due means 6 ms, however late it actually left.
	if got := s.latencyMS(1, s.due(1).Add(6*time.Millisecond)); got != 6 {
		t.Errorf("latencyMS = %g, want 6", got)
	}

	// A write the program blocks for 30 ms is back-pressure, not
	// lateness: the operations that came due meanwhile follow at once
	// and are on time, as an ideal generator's would be...
	b := newSchedule(start, time.Millisecond, 4)
	send(b, 0, 0, 30*time.Millisecond)
	send(b, 1, 29*time.Millisecond+200*us, 10*us) // 200 µs after the write returned
	if b.late[1] != 200*us {
		t.Errorf("lateness behind a blocked write = %v, want 200µs", b.late[1])
	}
	// ...but their latency still runs from their due times.
	if got := b.latencyMS(1, b.due(1).Add(31*time.Millisecond)); got != 31 {
		t.Errorf("latencyMS behind a blocked write = %g, want 31", got)
	}
	// A generator that stalls for 20 ms itself is late for every
	// operation it then sends to catch up, not only for the first.
	g := newSchedule(start, time.Millisecond, 4)
	send(g, 0, 0, 10*us)
	send(g, 1, 20*time.Millisecond, 10*us)
	send(g, 2, 19*time.Millisecond+10*us, 10*us) // straight after operation 1
	if g.late[1] != 20*time.Millisecond || g.late[2] != 19*time.Millisecond+10*us {
		t.Errorf("lateness catching up after a stall = %v, want [0 20ms 19.01ms]", g.late)
	}
}

func TestScheduleWaitReturnsAtOnceWhenBehind(t *testing.T) {
	s := newSchedule(time.Now().Add(-time.Second), time.Millisecond, 0)
	t0 := time.Now()
	s.wait(10) // due 990 ms ago: no sleeping, no skipping
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Errorf("wait on an overdue operation slept %v", d)
	}
	s = newSchedule(time.Now(), time.Millisecond, 0)
	t0 = time.Now()
	s.wait(20)
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Errorf("wait returned %v before the operation was due", 20*time.Millisecond-d)
	}
}
