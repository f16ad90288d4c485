package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/mrt"
	"moas/internal/synth"
)

// Scale sizes every workload. Full is the benchmark; Smoke is the same
// code at sizes a unit test can afford.
type Scale struct {
	Name string `json:"name"`
	// table-replay and checkpoint-recover: the stress-shaped table.
	TablePrefixes int `json:"table_prefixes"`
	TableDays     int `json:"table_days"`
	CkptDays      int `json:"ckpt_days"`
	// storm-replay: a small table under a flap storm.
	StormPrefixes int `json:"storm_prefixes"`
	StormDays     int `json:"storm_days"`
	StormFlaps    int `json:"storm_flaps"`
	StormChurn    int `json:"storm_churn"`
	// The stress mix riding on both: anycast fleets, leaks, hijacks.
	Anycast int `json:"anycast"`
	Leaks   int `json:"leaks"`
	Hijacks int `json:"hijacks"`
	ASes    int `json:"ases"`
	// live-serve: table transfer size and open-loop rate.
	LiveTable int `json:"live_table"`
	LiveRate  int `json:"live_rate"`
	// LiveHoldMS is how long a rival origin stays announced before it is
	// withdrawn (so about LiveRate/10 * LiveHoldMS/1000 conflicts stay active).
	LiveHoldMS int `json:"live_hold_ms"`
	// Timed repetitions (a warm-up rep comes on top); -seconds may end
	// them early, but never below MinReps.
	TableReps int `json:"table_reps"`
	StormReps int `json:"storm_reps"`
	MinReps   int `json:"min_reps"`
	// CkptReps is how many checkpoints, and then recoveries, are timed at
	// most (see more).
	CkptReps int `json:"ckpt_reps"`
	// CkptDaysPerSec paces the checkpointed replay so that it is still
	// running mid-archive when the last checkpoint returns. A park
	// request wakes the pacing sleep, so every checkpoint costs the day
	// in flight plus the days that begin during its encode-and-write
	// tail (some 3 s at full size, against the 2 s a day takes at half a
	// day per second): three checkpoints leave the replay at day 5 or 6
	// of CkptDays' 8, and a host slow enough to stretch that takes only
	// two (see more).
	CkptDaysPerSec float64 `json:"ckpt_days_per_sec"`
	// Queries is the number of rounds of storm-replay's read phase.
	Queries int `json:"queries"`
	// MicroN sizes the input-independent micro-measures of the traced run.
	MicroN int `json:"micro_n"`
}

// Full is the benchmark's size: the 1M-prefix table stays whatever the
// time budget, repetitions shrink instead.
var Full = Scale{
	Name:          "full",
	TablePrefixes: 1 << 20, TableDays: 6, CkptDays: 8,
	StormPrefixes: 1 << 14, StormDays: 120, StormFlaps: 8192, StormChurn: 4096,
	Anycast: 256, Leaks: 256, Hijacks: 128, ASes: 60000,
	LiveTable: 1 << 20, LiveRate: 50000, LiveHoldMS: 2000,
	TableReps: 7, StormReps: 5, MinReps: 2,
	CkptReps: 3, CkptDaysPerSec: 0.5,
	Queries: 9, MicroN: 200000,
}

// Smoke exercises every code path in a few seconds.
var Smoke = Scale{
	Name:          "smoke",
	TablePrefixes: 1 << 12, TableDays: 6, CkptDays: 12,
	StormPrefixes: 1 << 9, StormDays: 12, StormFlaps: 64, StormChurn: 32,
	Anycast: 8, Leaks: 8, Hijacks: 4, ASes: 1024,
	LiveTable: 1 << 12, LiveRate: 20000, LiveHoldMS: 200,
	TableReps: 2, StormReps: 2, MinReps: 1,
	CkptReps: 3, CkptDaysPerSec: 20,
	Queries: 3, MicroN: 2000,
}

// ScaleByName resolves the -scale flag.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "full":
		return Full, nil
	case "smoke":
		return Smoke, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

// synthConfig is the generator configuration behind a replay-shaped
// workload. The seed reaches only here and liveFeed: the program under
// test sees nothing but the generated bytes.
func (sc Scale) synthConfig(workload string, seed int64) synth.Config {
	cfg := synth.Config{Seed: seed, ASes: sc.ASes, Vantages: 2}
	mix := []synth.Pattern{synth.Anycast(sc.Anycast), synth.RouteLeak(sc.Leaks), synth.GradualHijack(sc.Hijacks)}
	switch workload {
	case StormReplay:
		cfg.Prefixes, cfg.Days = sc.StormPrefixes, sc.StormDays
		cfg.Patterns = append(mix, synth.FlapStorm(sc.StormFlaps, sc.StormChurn, 2))
	case CheckpointRecover:
		cfg.Prefixes, cfg.Days = sc.TablePrefixes, sc.CkptDays
		cfg.Patterns = append(mix, synth.FlapStorm(sc.Hijacks, sc.Anycast, 2))
	default: // table-replay: serve's "stress" shape
		cfg.Prefixes, cfg.Days = sc.TablePrefixes, sc.TableDays
		cfg.Patterns = append(mix, synth.FlapStorm(sc.Hijacks, sc.Anycast, 2))
	}
	return cfg
}

// archive is a generated MRT update archive on disk plus what the
// generator knows about it.
type archive struct {
	Path    string
	Bytes   int64
	Updates int // MRT records; the generators emit only BGP4MP UPDATEs
	Days    int
	Truth   []synth.Episode // the answer key the gate holds /episodes to
	GenTime time.Duration   // generation + write, for synth.gen_mb_per_s
}

// writeSynthArchive streams cfg's workload to path and records its
// ground truth.
func writeSynthArchive(cfg synth.Config, path string) (*archive, error) {
	t0 := time.Now()
	gen, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := io.Copy(bw, gen)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		// On disk before anything is timed: otherwise the kernel writes
		// these pages back in the middle of the replays that follow.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	a := &archive{Path: path, Bytes: n, Days: gen.Days(), Truth: gen.Truth(), GenTime: time.Since(t0)}
	if a.Updates, err = countRecords(path); err != nil {
		return nil, err
	}
	return a, nil
}

// countRecords walks the archive's MRT headers.
func countRecords(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fr := mrt.NewFramer(f)
	n := 0
	for {
		if _, err := fr.Skip(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("count %s: %w", path, err)
		}
		n++
	}
}

// Live feed layout. Two scripted sessions (the fewest that can disagree
// about an origin) split the table by prefix parity; all ASNs fit the
// 2-octet wire.
const (
	liveSessions  = 2
	livePeerAS    = 65001 // session s dials in as livePeerAS+s
	liveBase      = 0x10000000
	liveTick      = time.Millisecond
	liveConflicts = 10 // one update in liveConflicts opens a conflict
)

func livePrefix(i int) bgp.Prefix { return bgp.PrefixFromUint32(liveBase+uint32(i)<<8, 24) }

// liveIndex inverts livePrefix; ok is false for prefixes outside the table.
func liveIndex(p bgp.Prefix, table int) (int, bool) {
	a := p.Addr4()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	i := int((v - liveBase) >> 8)
	return i, p.Bits() == 24 && v >= liveBase && i < table
}

// liveFeed is the live-serve input, wire bytes pre-generated so no
// encoding happens inside a timed phase.
type liveFeed struct {
	Table int
	// Transfer[s] is session s's share of the table transfer, one
	// single-prefix announcement per table prefix, concatenated.
	Transfer [liveSessions][]byte
	// Ticks[t][s] is what session s sends in open-loop tick t.
	Ticks [][liveSessions][]byte
	// PerTick is the number of updates in every tick (all sessions).
	PerTick int
	// StartTick[i] and EndTick[i] are the ticks whose sends open and end
	// the conflict on table prefix i (EndTick -1: still active when the
	// loop ends); conflicts take the table's first len(StartTick) prefixes.
	StartTick, EndTick []int
	// Truth lists the conflicts in table order (days are not set: live
	// days are wall-clock days).
	Truth []synth.Episode
}

// Updates is the total number of UPDATE messages in the feed.
func (lf *liveFeed) Updates() int { return lf.Table + len(lf.Ticks)*lf.PerTick }

// liveBlock is how many consecutive table prefixes share one origin and
// transit, as prefixes of one network do on a real feed: the table's
// distinct attribute blocks stay a fraction of its prefixes.
const liveBlock = 16

// liveOrigin and liveRival are the first and the conflicting origin of
// table prefix i; the rival is never the owner.
func liveOrigin(seed int64, i int) bgp.ASN {
	return bgp.ASN(2000 + mix64(uint64(seed), uint64(i/liveBlock))%50000)
}
func liveRival(seed int64, i int) bgp.ASN { return liveOrigin(seed, i) + 1 }

// mix64 is a splitmix64-style hash of (a, b): the seeded pure function
// every live-feed choice derives from.
func mix64(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newLiveFeed builds the table transfer and `ticks` open-loop ticks at
// `rate` updates/s. Per tick, one update in liveConflicts announces a
// rival origin for a fresh prefix on the session that does not own it,
// as many withdraw the rivals announced holdMS earlier, and the
// rest re-announce table prefixes on their owning session with a
// transit drawn from two variants (same origin: no event).
func newLiveFeed(seed int64, table, rate, holdMS, ticks int) *liveFeed {
	lf := &liveFeed{Table: table, PerTick: rate / int(time.Second/liveTick)}
	// One scratch update, re-encoded per message: generation allocates
	// nothing but the output, which keeps setup_s steady.
	var (
		attrs bgp.Attrs
		ases  [3]bgp.ASN
		segs  [1]bgp.Segment
		one   [1]bgp.Prefix
	)
	announce := func(dst []byte, s, i int, transit, origin bgp.ASN) []byte {
		ases = [3]bgp.ASN{bgp.ASN(livePeerAS + s), transit, origin}
		segs[0] = bgp.Segment{Type: bgp.SegSequence, ASes: ases[:]}
		attrs = bgp.Attrs{Origin: bgp.OriginIGP, ASPath: segs[:], NextHop: [4]byte{10, 0, byte(s), 1}}
		one[0] = livePrefix(i)
		return (&bgp.Update{Attrs: &attrs, NLRI: one[:]}).AppendWire(dst)
	}
	withdraw := func(dst []byte, i int) []byte {
		one[0] = livePrefix(i)
		return (&bgp.Update{Withdrawn: one[:]}).AppendWire(dst)
	}
	// Transit variant 0 is the table's, rivals use 1, churn alternates both.
	transit := func(i, variant int) bgp.ASN {
		return bgp.ASN(1000 + mix64(uint64(seed)+uint64(variant), uint64(i/liveBlock))%1000)
	}

	perSession := (table + liveSessions - 1) / liveSessions
	size := len(announce(nil, 0, 0, transit(0, 0), liveOrigin(seed, 0)))
	for s := range lf.Transfer {
		lf.Transfer[s] = make([]byte, 0, perSession*size)
	}
	for i := 0; i < table; i++ {
		s := i % liveSessions
		lf.Transfer[s] = announce(lf.Transfer[s], s, i, transit(i, 0), liveOrigin(seed, i))
	}

	conflictsPerTick := lf.PerTick / liveConflicts
	hold := holdMS * int(time.Millisecond/liveTick)
	lf.Ticks = make([][liveSessions][]byte, ticks)
	next := 0 // next fresh conflict prefix; never reused within a run
	for t := range lf.Ticks {
		tick := &lf.Ticks[t]
		sent := 0
		for c := 0; c < conflictsPerTick && next < table; c++ {
			i := next
			next++
			s := (i + 1) % liveSessions // the session that does not own prefix i
			tick[s] = announce(tick[s], s, i, transit(i, 1), liveRival(seed, i))
			lf.StartTick = append(lf.StartTick, t)
			lf.EndTick = append(lf.EndTick, -1)
			sent++
		}
		if t >= hold {
			for i, c := (t-hold)*conflictsPerTick, 0; c < conflictsPerTick && i < next; i, c = i+1, c+1 {
				s := (i + 1) % liveSessions
				tick[s] = withdraw(tick[s], i)
				lf.EndTick[i] = t
				sent++
			}
		}
		// Background churn walks the upper half of the table, which the
		// conflict cursor (5k prefixes/s from index 0) never reaches.
		for ; sent < lf.PerTick; sent++ {
			h := mix64(uint64(seed)^0x5bd1e995, uint64(t*lf.PerTick+sent))
			i := table/2 + int(h%uint64(table/2))
			s := i % liveSessions
			tick[s] = announce(tick[s], s, i, transit(i, int(h>>40)%2), liveOrigin(seed, i))
		}
	}
	for i, end := range lf.EndTick {
		lf.Truth = append(lf.Truth, synth.Episode{
			Prefix:  livePrefix(i),
			Origins: []bgp.ASN{liveOrigin(seed, i), liveRival(seed, i)},
			Class:   core.ClassDistinctPaths,
			Open:    end < 0,
		})
	}
	return lf
}

// writeArchive renders the table transfer as an MRT archive (one BGP4MP
// record per announcement, all on day 0), so the per-layer composition
// has the same bytes to walk on live-serve as on the replay workloads.
func (lf *liveFeed) writeArchive(path string) (*archive, error) {
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var n int64
	var rec, body []byte
	for s := range lf.Transfer {
		m := mrt.BGP4MPMessage{PeerAS: bgp.ASN(livePeerAS + s), LocalAS: 64512, Family: bgp.FamilyIPv4, PeerIP: [16]byte{127, 0, 0, 1}}
		for wire := lf.Transfer[s]; len(wire) > 0; {
			size := int(wire[16])<<8 | int(wire[17]) // BGP header length field
			m.Data = wire[:size]
			wire = wire[size:]
			body = m.AppendBody(body[:0])
			rec = mrt.Header{Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeMessage, Length: uint32(len(body))}.AppendHeader(rec[:0])
			rec = append(rec, body...)
			if _, err := bw.Write(rec); err != nil {
				f.Close()
				return nil, err
			}
			n += int64(len(rec))
		}
	}
	err = bw.Flush()
	if err == nil {
		err = f.Sync() // as writeSynthArchive: no writeback inside a timed phase
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return &archive{Path: path, Bytes: n, Updates: lf.Table, Days: 1, GenTime: time.Since(t0)}, nil
}
