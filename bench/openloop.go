package bench

import (
	"syscall"
	"time"
)

// schedule is an open-loop send plan: operation i is due at
// start + i*period regardless of how the system under test is keeping
// up. Latencies are measured from the due time, so a stall charges
// every operation queued behind it, and the generator records how late
// it ran itself.
type schedule struct {
	start  time.Time
	period time.Duration
	// ideal is when a generator that is never delayed, except by the
	// program blocking its writes, would have finished the previous
	// operation's write.
	ideal time.Time
	began time.Time // when the current operation's write began
	// late[i] is how late the generator was ready to send operation i.
	late []time.Duration
}

func newSchedule(start time.Time, period time.Duration, ops int) *schedule {
	return &schedule{start: start, period: period, late: make([]time.Duration, 0, ops)}
}

// due is when operation i should be sent.
func (s *schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.period)
}

// offset is operation i's due time relative to the schedule start.
func (s *schedule) offset(i int) time.Duration { return time.Duration(i) * s.period }

// wait sleeps until operation i is due and returns immediately when it
// already is (the generator never skips work to catch up). It sleeps in
// the kernel, not on a Go timer: the runtime delivers timers through a
// poller with millisecond granularity, and only at scheduling points,
// which on two busy cores made the generator half a tick late at the
// median (0.53 ms of the 1 ms tick, against 0.09 ms this way) and that
// much of every event latency its own. Interrupted sleeps just resume.
func (s *schedule) wait(i int) {
	for d := time.Until(s.due(i)); d > 0; d = time.Until(s.due(i)) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// ready records that the generator was ready to send operation i (the
// next one: operations are recorded in order) at t, before the write.
// Its lateness is t against the moment an ideal generator would have
// been ready: the due time or, when the program's back-pressure held
// earlier writes beyond it, the end of the previous write. Time spent
// blocked in a write is thus never the generator's lateness, while the
// operations it sends late to catch up after a delay of its own are.
// Latencies still run from due times, so the program is charged for
// its back-pressure.
func (s *schedule) ready(i int, t time.Time) {
	if d := s.due(i); s.ideal.Before(d) {
		s.ideal = d
	}
	s.late = append(s.late, max(t.Sub(s.ideal), 0))
	s.began = t
}

// wrote records that the current operation's write returned at t.
func (s *schedule) wrote(t time.Time) { s.ideal = s.ideal.Add(t.Sub(s.began)) }

// latencyMS is the latency of operation i completed (or observed) at t,
// in milliseconds from its due time.
func (s *schedule) latencyMS(i int, t time.Time) float64 {
	return ms(t.Sub(s.due(i)))
}
