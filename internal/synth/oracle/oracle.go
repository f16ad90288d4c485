// Package oracle is the differential proof harness over internal/synth:
// it runs one generated workload through every ingest path the system
// has — an independent per-update batch driver over the kernel, the
// stream engine at several shard counts, the internal/source file path
// under Engine.Run, and a mid-run kill/checkpoint/resume — and requires
// every path to match the generator's ground truth episode-for-episode
// and each other byte-for-byte at the checkpoint level. A pass means
// wire encoding, MRT decode, route tables, origin extraction,
// classification, the episode kernel, sharding, the live-run day logic
// and the checkpoint codec all agree with a plan that never went
// through any of them.
package oracle

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/mrt"
	"moas/internal/rib"
	"moas/internal/source"
	"moas/internal/stream"
	"moas/internal/synth"
)

// Options tunes a differential run. The zero value is the standard
// proof: stream legs at 1, 4 and 8 shards, kill at mid-run.
type Options struct {
	// ShardCounts are the stream-engine leg configurations.
	ShardCounts []int
	// KillDay is how many day closes the killed leg survives before the
	// checkpoint-and-abort (default Days/2, clamped inside the run).
	KillDay int
	// EpisodeDir hosts the episode-log legs' on-disk logs (empty = a
	// temporary directory, removed when the run ends).
	EpisodeDir string
}

// Report summarizes a passing run.
type Report struct {
	ArchiveBytes    int
	Updates         uint64
	Episodes        int
	Events          int
	CheckpointBytes int
	Legs            []string
}

// Run executes the full differential proof for cfg and returns a report,
// or an error naming the first leg that diverged.
func Run(cfg synth.Config, opts Options) (*Report, error) {
	if len(opts.ShardCounts) == 0 {
		opts.ShardCounts = []int{1, 4, 8}
	}

	// Generate twice: the archive and truth must be pure functions of the
	// config before any ingest claim means anything.
	gen, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, gen); err != nil {
		return nil, fmt.Errorf("oracle: generate: %w", err)
	}
	archive := buf.Bytes()
	truth := gen.Truth()
	days := gen.Days()
	gen2, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var buf2 bytes.Buffer
	if _, err := io.Copy(&buf2, gen2); err != nil {
		return nil, fmt.Errorf("oracle: regenerate: %w", err)
	}
	if !bytes.Equal(archive, buf2.Bytes()) {
		return nil, fmt.Errorf("oracle: generator not deterministic: %d vs %d bytes", len(archive), buf2.Len())
	}
	if !reflect.DeepEqual(truth, gen2.Truth()) {
		return nil, fmt.Errorf("oracle: truth log not deterministic")
	}
	// The truth log must also survive its own codec: what moasgen writes
	// to disk is what a later judge decodes.
	decoded, err := synth.DecodeTruthLog(synth.AppendTruthLog(nil, truth))
	if err != nil || (len(truth) > 0 && !reflect.DeepEqual(decoded, truth)) {
		return nil, fmt.Errorf("oracle: truth log did not round-trip its codec: %v", err)
	}

	rep := &Report{ArchiveBytes: len(archive), Episodes: len(truth)}
	cal := contiguousCalendar(days)

	// Leg 0: the independent batch driver — a plain map table and the
	// kernel, no engine code.
	batchEvents, batchReg, updates, err := runBatch(archive, days)
	if err != nil {
		return nil, err
	}
	rep.Updates = updates
	rep.Legs = append(rep.Legs, "batch")

	// Stream legs: replay at each shard count; every leg must produce the
	// same events, registry and checkpoint bytes as the first.
	var ref *legResult
	for _, n := range opts.ShardCounts {
		var evs collector
		e := stream.New(stream.Config{Shards: n, OnEvent: evs.add})
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			e.Close()
			return nil, fmt.Errorf("oracle: replay %d shards: %w", n, err)
		}
		e.Close()
		leg, err := engineResult(fmt.Sprintf("stream-%dshard", n), e, evs.sorted())
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = leg
		} else if err := leg.diff(ref); err != nil {
			return nil, err
		}
		rep.Legs = append(rep.Legs, leg.name)
	}

	// File-source leg: the same bytes through internal/source and
	// Engine.Run's live day logic. Now is pinned to the epoch and the
	// ticks never fire, so the wall clock cannot close the generator's
	// epoch-anchored days early; CloseFinalDay gives EOF the same final
	// close replay performs.
	{
		var evs collector
		e := stream.New(stream.Config{Shards: 4, OnEvent: evs.add})
		src := source.NewFileReader(bytes.NewReader(archive), "synth", e.Interner())
		err := e.Run(src, &stream.RunOptions{
			CloseFinalDay: true,
			Now:           func() uint32 { return 0 },
			Ticks:         make(chan time.Time),
		})
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("oracle: file-source run: %w", err)
		}
		e.Close()
		leg, err := engineResult("file-source", e, evs.sorted())
		if err != nil {
			return nil, err
		}
		if err := leg.diff(ref); err != nil {
			return nil, err
		}
		rep.Legs = append(rep.Legs, leg.name)
	}

	killDay := opts.KillDay
	if killDay <= 0 {
		killDay = days / 2
	}
	if killDay < 1 {
		killDay = 1
	}
	if killDay > days-2 {
		killDay = days - 2
	}

	// Kill/resume leg: checkpoint mid-run, abort, restore at a different
	// shard count, finish the archive. Crash recovery must be invisible:
	// the events the killed engine published up to its park, followed by
	// the restored engine's, are the uninterrupted run's — none lost at
	// the cut and none published twice.
	{
		var evs collector
		ck, err := checkpointAt(archive, cal, stream.Config{Shards: 2}, killDay, &evs)
		if err != nil {
			return nil, err
		}
		e, err := stream.NewFromCheckpoint(stream.Config{Shards: 3, OnEvent: evs.add}, ck)
		if err != nil {
			return nil, fmt.Errorf("oracle: restore: %w", err)
		}
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			e.Close()
			return nil, fmt.Errorf("oracle: resumed replay: %w", err)
		}
		e.Close()
		leg, err := engineResult(fmt.Sprintf("kill-resume@day%d", killDay), e, evs.sorted())
		if err != nil {
			return nil, err
		}
		if err := leg.diff(ref); err != nil {
			return nil, err
		}
		rep.Legs = append(rep.Legs, leg.name)
	}

	// Episode-log legs: what a historical time-range query reads back off
	// disk must match ground truth episode-for-episode — first for a clean
	// replay, then across a mid-archive kill where the log holds stale
	// open records and resume-era duplicates the fold must absorb.
	epiDir := opts.EpisodeDir
	if epiDir == "" {
		dir, err := os.MkdirTemp("", "moas-oracle-epilog-")
		if err != nil {
			return nil, fmt.Errorf("oracle: episode log dir: %w", err)
		}
		defer os.RemoveAll(dir)
		epiDir = dir
	}
	{
		lg, err := epilog.Open(filepath.Join(epiDir, "replay"), epilog.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle: epilog-replay open: %w", err)
		}
		var evs collector
		e := stream.New(stream.Config{Shards: 4, EpisodeLog: lg, OnEvent: evs.add})
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			e.Close()
			return nil, fmt.Errorf("oracle: epilog-replay: %w", err)
		}
		e.Close()
		// The log rides along without perturbing the engine: this leg must
		// still byte-match the reference checkpoint.
		leg, err := engineResult("epilog-replay", e, evs.sorted())
		if err != nil {
			return nil, err
		}
		if err := leg.diff(ref); err != nil {
			return nil, err
		}
		eps, err := lg.Query(epilog.Query{Class: -1, AsOf: days - 1})
		if cerr := lg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: epilog-replay query: %w", err)
		}
		if err := diffTruth(eps, truth); err != nil {
			return nil, fmt.Errorf("epilog-replay: %w", err)
		}
		rep.Legs = append(rep.Legs, leg.name)
	}
	{
		// Tiny segments force rotations and compactions under the kill, so
		// recovery also crosses sealed-segment and compaction boundaries.
		dir := filepath.Join(epiDir, "kill")
		lg, err := epilog.Open(dir, epilog.Options{RotateBytes: 4 << 10, CompactEvery: 2})
		if err != nil {
			return nil, fmt.Errorf("oracle: epilog-kill open: %w", err)
		}
		ck, err := checkpointAt(archive, cal, stream.Config{Shards: 2, EpisodeLog: lg}, killDay, new(collector))
		if cerr := lg.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("oracle: epilog-kill close: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		lg2, err := epilog.Open(dir, epilog.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle: epilog-kill reopen: %w", err)
		}
		e, err := stream.NewFromCheckpoint(stream.Config{Shards: 3, EpisodeLog: lg2}, ck)
		if err != nil {
			lg2.Close()
			return nil, fmt.Errorf("oracle: epilog-kill restore: %w", err)
		}
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			e.Close()
			lg2.Close()
			return nil, fmt.Errorf("oracle: epilog-kill resumed replay: %w", err)
		}
		e.Close()
		eps, err := lg2.Query(epilog.Query{Class: -1, AsOf: days - 1})
		if cerr := lg2.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: epilog-kill query: %w", err)
		}
		if err := diffTruth(eps, truth); err != nil {
			return nil, fmt.Errorf("epilog-kill-recover@day%d: %w", killDay, err)
		}
		rep.Legs = append(rep.Legs, fmt.Sprintf("epilog-kill-recover@day%d", killDay))
	}

	rep.CheckpointBytes = len(ref.ck)
	rep.Events = len(ref.events)

	// Batch and stream must agree event-for-event (day, per-prefix seq,
	// origin sets, classes) — two independent drivers over one kernel.
	if err := diffEvents("batch", batchEvents, ref.events); err != nil {
		return nil, err
	}

	// Every leg's episode view must match ground truth episode-for-episode.
	eps := episodesFromEvents(ref.events, days-1)
	if err := diffTruth(eps, truth); err != nil {
		return nil, err
	}

	// And the registries — the paper-facing aggregate — must match the
	// per-day summation of the truth log exactly, on every leg.
	expected := expectedRegistry(truth)
	if err := diffRegistry("stream", ref.reg, expected); err != nil {
		return nil, err
	}
	if err := diffRegistry("batch", batchReg.Conflicts(), expected); err != nil {
		return nil, err
	}
	return rep, nil
}

// contiguousCalendar is the synth day axis: days 0..n-1 at d*86400.
func contiguousCalendar(n int) stream.Calendar {
	days := make([]int, n)
	for d := range days {
		days[d] = d
	}
	return stream.NewCalendar(days, synth.DayTime)
}

// legResult is one ingest path's complete observable output.
type legResult struct {
	name   string
	ck     []byte
	events []stream.Event
	reg    []*core.Conflict
}

// engineResult is a finished engine's leg: its checkpoint, its registry
// and events, the ones its OnEvent published in canonical order.
func engineResult(name string, e *stream.Engine, events []stream.Event) (*legResult, error) {
	ck, err := stream.AppendCheckpointBinary(nil, e.Checkpoint())
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: encode checkpoint: %w", name, err)
	}
	return &legResult{name: name, ck: ck, events: events, reg: e.Registry().Conflicts()}, nil
}

// collector keeps the events an engine publishes through Config.OnEvent,
// which the shard workers call concurrently.
type collector struct {
	mu  sync.Mutex
	evs []stream.Event
}

func (c *collector) add(ev stream.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

// sorted returns the events collected so far in kernel.SortEvents order.
func (c *collector) sorted() []stream.Event {
	c.mu.Lock()
	evs := slices.Clone(c.evs)
	c.mu.Unlock()
	kernel.SortEvents(evs)
	return evs
}

func (l *legResult) diff(ref *legResult) error {
	if !bytes.Equal(l.ck, ref.ck) {
		return fmt.Errorf("oracle: %s checkpoint (%d bytes) differs from %s (%d bytes)",
			l.name, len(l.ck), ref.name, len(ref.ck))
	}
	if err := diffEvents(l.name, l.events, ref.events); err != nil {
		return err
	}
	if len(l.reg) != len(ref.reg) {
		return fmt.Errorf("oracle: %s registry has %d conflicts, %s has %d",
			l.name, len(l.reg), ref.name, len(ref.reg))
	}
	for i := range l.reg {
		if a, b := conflictKey(l.reg[i]), conflictKey(ref.reg[i]); a != b {
			return fmt.Errorf("oracle: %s registry[%d] %s != %s %s", l.name, i, a, ref.name, b)
		}
	}
	return nil
}

// eventKey stringifies every field (value semantics: nil and empty origin
// sets print alike, so arena-vs-heap backing differences cannot leak in).
func eventKey(ev kernel.Event) string {
	return fmt.Sprintf("t%d d%d s%d %s o%v po%v c%d pc%d",
		ev.Type, ev.Day, ev.Seq, ev.Prefix, ev.Origins, ev.PrevOrigins, ev.Class, ev.PrevClass)
}

func diffEvents(name string, got, want []kernel.Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %s produced %d events, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if a, b := eventKey(got[i]), eventKey(want[i]); a != b {
			return fmt.Errorf("oracle: %s event %d: %s != reference %s", name, i, a, b)
		}
	}
	return nil
}

func conflictKey(c *core.Conflict) string {
	return fmt.Sprintf("%s f%d l%d d%d o%v cd%v",
		c.Prefix, c.FirstDay, c.LastDay, c.DaysObserved, c.OriginsEver, c.ClassDays)
}

// runBatch is the independent driver: raw MRT decode, a plain per-peer
// map table, rib origin extraction and core classification applied per
// route-level operation — exactly the observation order the stream
// shards see, with none of their code.
func runBatch(archive []byte, days int) ([]kernel.Event, *core.Registry, uint64, error) {
	k := kernel.New(kernel.Options{})
	var events []kernel.Event
	type peerKey struct {
		ip [16]byte
		as bgp.ASN
	}
	table := make(map[bgp.Prefix]map[peerKey]*bgp.Attrs)
	var routes []rib.PeerRoute
	var origins []bgp.ASN

	assess := func(day int, p bgp.Prefix) {
		routes = routes[:0]
		for pk, at := range table[p] {
			routes = append(routes, rib.PeerRoute{PeerAS: pk.as, Route: bgp.Route{Prefix: p, Attrs: at}})
		}
		origins, _ = rib.AppendOrigins(origins, routes)
		var class core.Class
		if len(origins) >= 2 {
			class = core.ClassifyRoutes(routes)
		}
		events = append(events, k.Apply(kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class})...)
	}

	var updates uint64
	var upd bgp.Update // reused: each decode allocates a fresh Attrs, which the table keeps
	curDay := 0
	fr := mrt.NewFramer(bytes.NewReader(archive))
	var body []byte
	for {
		h, b, err := fr.NextInto(body[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("oracle: batch mrt decode: %w", err)
		}
		body = b
		if !h.CarriesMessage() {
			return nil, nil, 0, fmt.Errorf("oracle: batch: unexpected record %d/%d", h.Type, h.Subtype)
		}
		var msg mrt.BGP4MPMessage
		if err := msg.DecodeBGP4MPMessageBorrow(body); err != nil {
			return nil, nil, 0, fmt.Errorf("oracle: batch bgp4mp decode: %w", err)
		}
		typ, body, err := bgp.MessageBody(msg.Data)
		if err != nil || typ != bgp.MsgUpdate {
			return nil, nil, 0, fmt.Errorf("oracle: batch: non-update message (type %d): %v", typ, err)
		}
		if err := bgp.DecodeUpdateBodyInto(&upd, body, nil); err != nil {
			return nil, nil, 0, fmt.Errorf("oracle: batch update decode: %w", err)
		}
		updates++
		for day := int(h.Timestamp / 86400); curDay < day; curDay++ {
			k.CloseDay(curDay)
		}
		peer := peerKey{msg.PeerIP, msg.PeerAS}
		for _, p := range upd.Withdrawn {
			m := table[p]
			if _, ok := m[peer]; !ok {
				continue // no route to withdraw: the table didn't change
			}
			delete(m, peer)
			if len(m) == 0 {
				delete(table, p)
			}
			assess(curDay, p)
		}
		if upd.Attrs != nil {
			for _, p := range upd.NLRI {
				m := table[p]
				if m == nil {
					m = make(map[peerKey]*bgp.Attrs)
					table[p] = m
				}
				m[peer] = upd.Attrs
				assess(curDay, p)
			}
		}
	}
	for ; curDay < days; curDay++ {
		k.CloseDay(curDay)
	}
	kernel.SortEvents(events)
	return events, k.Registry(), updates, nil
}

// checkpointAt replays until stopAfterDays day closes, pauses, takes a
// checkpoint and aborts — the oracle's simulated crash. The events the
// engine published go to evs, and checkpointAt fails if one is published
// after the park: the park is the cut a restored engine's events
// continue from.
func checkpointAt(archive []byte, cal stream.Calendar, cfg stream.Config, stopAfterDays int, evs *collector) (*stream.Checkpoint, error) {
	cfg.OnEvent = evs.add
	e := stream.New(cfg)
	stop := make(chan struct{})
	done := make(chan error, 1)
	closed := 0
	paused := make(chan struct{})
	go func() {
		done <- e.Replay(bytes.NewReader(archive), cal, &stream.ReplayOptions{
			Stop: stop,
			OnDayClose: func(day int) {
				closed++
				if closed == stopAfterDays {
					e.Pause()
					close(paused)
				}
			},
		})
	}()
	select {
	case <-paused:
	case err := <-done:
		return nil, fmt.Errorf("oracle: kill leg: replay ended before parking: %v", err)
	}
	// The request is still pending, so Pause hands back its channel.
	select {
	case <-e.Pause():
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("oracle: kill leg: replay never parked")
	}
	parked := len(evs.sorted())
	ck := e.Checkpoint()
	close(stop)
	if err := <-done; err != stream.ErrReplayStopped {
		return nil, fmt.Errorf("oracle: kill leg: aborted replay returned %v", err)
	}
	e.Close()
	if n := len(evs.sorted()); n != parked {
		return nil, fmt.Errorf("oracle: kill leg: %d events published after the park", n-parked)
	}
	return ck, nil
}

// episodesFromEvents folds a sorted event log into conflict episodes:
// ConflictStart opens one, OriginChange/ClassChange update it (the
// episode reports its final origin set and class, as the truth log
// does), ConflictEnd on day d closes it with last active day d-1, and
// anything still open at the final day stays open through it. The result
// is in (prefix, start) order — the truth log's, and the episode log's
// query order.
func episodesFromEvents(evs []stream.Event, lastDay int) []core.Episode {
	open := make(map[bgp.Prefix]*core.Episode)
	var out []core.Episode
	for i := range evs {
		ev := &evs[i]
		switch ev.Type {
		case kernel.EventConflictStart:
			open[ev.Prefix] = &core.Episode{
				Prefix:  ev.Prefix,
				Origins: append([]bgp.ASN(nil), ev.Origins...),
				Class:   ev.Class,
				Start:   ev.Day,
			}
		case kernel.EventOriginChange:
			if ep := open[ev.Prefix]; ep != nil {
				ep.Origins = append(ep.Origins[:0], ev.Origins...)
				ep.Class = ev.Class
			}
		case kernel.EventClassChange:
			if ep := open[ev.Prefix]; ep != nil {
				ep.Class = ev.Class
			}
		case kernel.EventConflictEnd:
			if ep := open[ev.Prefix]; ep != nil {
				ep.End = max(ev.Day-1, ep.Start)
				out = append(out, *ep)
				delete(open, ev.Prefix)
			}
		}
	}
	for _, ep := range open {
		ep.End, ep.Open = lastDay, true
		out = append(out, *ep)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Prefix.Compare(out[j].Prefix); c != 0 {
			return c < 0
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// diffTruth compares episodes as a path observed them — folded from an
// engine's events, or read back from its episode log — with the truth
// log, one for one.
func diffTruth(got []core.Episode, truth []synth.Episode) error {
	if len(got) != len(truth) {
		return fmt.Errorf("oracle: engine observed %d episodes, truth has %d", len(got), len(truth))
	}
	for i := range got {
		g, w := &got[i], &truth[i]
		if g.Prefix != w.Prefix || g.Class != w.Class || g.Start != w.Start ||
			g.End != w.End || g.Open != w.Open || !slices.Equal(g.Origins, w.Origins) {
			return fmt.Errorf("oracle: episode %d: engine saw %s o%v class %v [%d,%d] open=%v; truth %s o%v class %v [%d,%d] open=%v (%s)",
				i, g.Prefix, g.Origins, g.Class, g.Start, g.End, g.Open,
				w.Prefix, w.Origins, w.Class, w.Start, w.End, w.Open, w.Pattern)
		}
	}
	return nil
}

// expectedRegistry derives the paper-facing aggregate straight from the
// truth log: for every episode day, the conflict was active at day close
// with the episode's origin set and class — the same accrual
// kernel.CloseDay performs, computed without any kernel.
func expectedRegistry(truth []synth.Episode) []*core.Conflict {
	type dayState struct {
		origins []bgp.ASN
		class   core.Class
	}
	perPrefix := make(map[bgp.Prefix]map[int]dayState)
	for i := range truth {
		ep := &truth[i]
		m := perPrefix[ep.Prefix]
		if m == nil {
			m = make(map[int]dayState)
			perPrefix[ep.Prefix] = m
		}
		for d := ep.Start; d <= ep.End; d++ {
			m[d] = dayState{origins: ep.Origins, class: ep.Class}
		}
	}
	out := make([]*core.Conflict, 0, len(perPrefix))
	for p, days := range perPrefix {
		c := &core.Conflict{Prefix: p, FirstDay: 1 << 30}
		for d, st := range days {
			if d < c.FirstDay {
				c.FirstDay = d
			}
			if d > c.LastDay {
				c.LastDay = d
			}
			c.DaysObserved++
			c.ClassDays[st.class]++
			for _, o := range st.origins {
				c.OriginsEver = mergeASN(c.OriginsEver, o)
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

func mergeASN(dst []bgp.ASN, o bgp.ASN) []bgp.ASN {
	i := sort.Search(len(dst), func(i int) bool { return dst[i] >= o })
	if i < len(dst) && dst[i] == o {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = o
	return dst
}

func diffRegistry(name string, got, want []*core.Conflict) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %s registry has %d conflicts, truth expects %d", name, len(got), len(want))
	}
	for i := range got {
		if a, b := conflictKey(got[i]), conflictKey(want[i]); a != b {
			return fmt.Errorf("oracle: %s registry[%d]: %s, truth expects %s", name, i, a, b)
		}
	}
	return nil
}
