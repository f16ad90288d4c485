// Package synth generates seeded, deterministic BGP4MP update-stream
// workloads at internet scale — on the order of a million prefixes,
// tens of thousands of origin ASes, multiple vantage points — without
// ever materializing the table: Stream emits MRT bytes chunk by chunk
// from pure hash functions of (seed, position), so producing a
// gigabyte-class archive holds only a few fixed scratch buffers.
// Pattern plugins (anycast fleets, route leaks, gradual hijacks, flap
// storms) inject MOAS episodes on top of the background table and
// record a ground-truth Episode log as they plan — the answer key the
// differential oracle (synth/oracle) holds every ingest path to.
//
// Timestamps are epoch-anchored: day d's updates are all stamped
// d*86400, and every day emits at least one record, so the replay
// calendar, Engine.Run's absolute-UTC-day numbering and
// ArchiveCalendar's relative renumbering all agree on day indexes
// 0..Days-1. Every record is a BGP4MP UPDATE message, so the replay
// record cursor and the file source's delivered-update cursor also
// agree — a generator invariant the oracle's checkpoint comparison
// depends on. All ASNs fit the 2-octet wire encoding the stream
// engine's interner speaks; that caps the origin-AS pool at 60000
// (Config.ASes clamps), which is the honest ceiling behind the
// roadmap's "~75k ASes" ask until the 4-octet interner lands.
package synth

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"moas/internal/bgp"
)

// AS-number layout. The pools are pairwise disjoint by construction, so
// patterns get intra-episode distinctness (origin != transit != vantage)
// for free; all values fit 16 bits for the 2-octet attrs wire.
const (
	// localAS is the collector side of every BGP4MP record, matching
	// internal/collector's convention.
	localAS bgp.ASN = 6447
	// vantageASBase numbers vantage (peer) ASes 64512+v — private range.
	vantageASBase = 64512
	// transitASBase..transitASBase+transitASPool-1 hold transit ASes.
	transitASBase, transitASPool = 1000, 1000
	// originASBase starts the origin pool; Config.ASes sizes it, capped
	// at maxOriginASes so originASBase+ASes stays under vantageASBase.
	originASBase, maxOriginASes = 2000, 60000
)

// Prefix-space layout: the background table is carved into /24 blocks of
// blockSize prefixes that share one update (and so one attrs block) per
// vantage; pattern episodes live in a disjoint /24 region above it.
const (
	blockSize      = 16
	backgroundBase = 0x10000000 // 16.0.0.0: background /24 #i at base+i<<8
	patternBase    = 0x60000000 // 96.0.0.0: pattern /24 #i at base+i<<8
)

// Hash domain tags keep the per-purpose pseudo-random streams independent.
const (
	tagBackground uint64 = 1 + iota
	tagChurn
	tagAnycast
	tagLeak
	tagHijack
	tagFlap
	tagStorm
)

// Config sizes a synthetic workload. The zero value is usable: every
// field defaults and clamps (see withDefaults) so tests can say just
// {Seed: 7, Patterns: ...}.
type Config struct {
	// Seed drives every random choice; same Config, same bytes.
	Seed int64
	// Days is the number of observation days, 0..Days-1 (default 12,
	// min 4 so every pattern has room for onset and withdrawal).
	Days int
	// Prefixes is the background table size in /24s (default 4096).
	Prefixes int
	// ASes sizes the origin-AS pool (default 1024, clamped to
	// [16, 60000] — the 2-octet wire ceiling).
	ASes int
	// Vantages is the number of collector peers, each announcing the
	// full background table (default 4, clamped to [2, 512]).
	Vantages int
	// ChurnPerDay is how many background blocks each non-baseline day
	// withdraws and re-announces with identical attributes — origin-set
	// neutral by construction, so it exercises route-table recycling
	// without perturbing ground truth (default Prefixes/64, min 1).
	ChurnPerDay int
	// Patterns are the episode generators layered over the background.
	Patterns []Pattern
}

func (c Config) withDefaults() Config {
	if c.Days <= 0 {
		c.Days = 12
	}
	if c.Days < 4 {
		c.Days = 4
	}
	if c.Prefixes <= 0 {
		c.Prefixes = 4096
	}
	if c.ASes <= 0 {
		c.ASes = 1024
	}
	if c.ASes < 16 {
		c.ASes = 16
	}
	if c.ASes > maxOriginASes {
		c.ASes = maxOriginASes
	}
	if c.Vantages <= 0 {
		c.Vantages = 4
	}
	if c.Vantages < 2 {
		c.Vantages = 2
	}
	if c.Vantages > 512 {
		c.Vantages = 512
	}
	if c.ChurnPerDay <= 0 {
		c.ChurnPerDay = c.Prefixes / 64
		if c.ChurnPerDay < 1 {
			c.ChurnPerDay = 1
		}
	}
	return c
}

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the seed and position tags into one pseudo-random word.
// Pure function of its inputs: generation needs no stored state.
func (c *Config) hash(tags ...uint64) uint64 {
	h := mix(uint64(c.Seed))
	for _, t := range tags {
		h = mix(h ^ t)
	}
	return h
}

func (c *Config) originAS(x uint64) bgp.ASN {
	return bgp.ASN(originASBase + x%uint64(c.ASes))
}

func transitAS(x uint64) bgp.ASN {
	return bgp.ASN(transitASBase + x%transitASPool)
}

func vantageAS(v int) bgp.ASN { return bgp.ASN(vantageASBase + v) }

func vantageIP(v int) (ip [16]byte) {
	ip[0], ip[1], ip[2], ip[3] = 10, byte(v>>8), byte(v), 1
	return ip
}

// localIP is the collector's address on every record, matching
// internal/collector's convention.
var localIP = [16]byte{198, 32, 255, 254}

func backgroundPrefix(i int) bgp.Prefix {
	return bgp.PrefixFromUint32(backgroundBase+uint32(i)<<8, 24)
}

func patternPrefix(i uint32) bgp.Prefix {
	return bgp.PrefixFromUint32(patternBase+i<<8, 24)
}

// DayTime is the timestamp on day's records: the synth day axis is days
// 0..n-1 at d*86400.
func DayTime(day int) uint32 { return uint32(day) * 86400 }

// sortedASNs returns a fresh ascending copy — the truth log's canonical
// origin-set form, matching rib.AppendOrigins output order.
func sortedASNs(in []bgp.ASN) []bgp.ASN {
	out := append([]bgp.ASN(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ParseMix builds a pattern list from a comma-separated spec like
// "anycast,leak,hijack,flap" — the cmd/moasgen surface. Each name may
// carry a count suffix (anycast:200); n is the default per-pattern
// episode count.
func ParseMix(spec string, n int) ([]Pattern, error) {
	if n <= 0 {
		n = 16
	}
	var pats []Pattern
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, count := tok, n
		if i := strings.IndexByte(tok, ':'); i >= 0 {
			name = tok[:i]
			v, err := strconv.Atoi(tok[i+1:])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("synth: bad pattern count %q", tok)
			}
			count = v
		}
		switch name {
		case "anycast":
			pats = append(pats, Anycast(count))
		case "leak":
			pats = append(pats, RouteLeak(count))
		case "hijack":
			pats = append(pats, GradualHijack(count))
		case "flap":
			pats = append(pats, FlapStorm(count, count, 2))
		default:
			return nil, fmt.Errorf("synth: unknown pattern %q (want anycast, leak, hijack or flap)", name)
		}
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("synth: empty pattern mix %q", spec)
	}
	return pats, nil
}
