package core

import "moas/internal/bgp"

// Episode is one conflict activation — the record the kernel derives from
// each lifecycle event and the episode log stores. Closed episodes span
// [Start, End] observation days inclusive; an open episode restates the
// still-running activation after its latest lifecycle event, with End
// holding that event's day (readers render it against an as-of day). Seq
// is the per-prefix ordinal of the reporting event, which is what lets a
// durable consumer fold re-emitted records (checkpoint resume replays the
// same events with the same Seqs) back into one episode.
type Episode struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN // conflicting origin set, strictly ascending
	Class   Class
	Seq     uint64
	Start   int // first day the activation held >= 2 origins
	End     int // last active day (closed) / latest event day (open)
	Open    bool
}

// Duration returns the episode's length in days, inclusive of both ends.
func (e *Episode) Duration() int { return e.End - e.Start + 1 }
