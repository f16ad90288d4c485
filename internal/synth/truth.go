package synth

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/core"
)

// Episode is one ground-truth MOAS conflict a pattern injected: the
// answer key entry the oracle holds every ingest path to.
type Episode struct {
	Prefix bgp.Prefix
	// Origins is the full origin set while the episode is up, ascending.
	Origins []bgp.ASN
	// Class is the taxonomy class the route set classifies as.
	Class core.Class
	// Start and End are the first and last day (inclusive) the conflict
	// is active at day close.
	Start, End int
	// Open marks an episode still active on the final day (no withdrawal
	// in the archive).
	Open bool
	// Persistent labels the episode long-lived/operational (anycast,
	// multi-homing) as opposed to transient (leak, hijack, flap) — the
	// persistence dimension of "Live Long and Prosper".
	Persistent bool
	// Pattern names the generator that injected the episode.
	Pattern string
}

// sortEpisodes orders canonically: (prefix, start, pattern).
func sortEpisodes(eps []Episode) {
	sort.Slice(eps, func(i, j int) bool {
		if c := eps[i].Prefix.Compare(eps[j].Prefix); c != 0 {
			return c < 0
		}
		if eps[i].Start != eps[j].Start {
			return eps[i].Start < eps[j].Start
		}
		return eps[i].Pattern < eps[j].Pattern
	})
}

// Truth-log container: magic, version byte, episode count, then one
// length-prefixed frame per episode. Same framing discipline as the
// MSNP/MCKP codecs: uvarint sizes, explicit version, hostile-input-safe
// decode via binenc.Reader.
const (
	truthMagic   = "MTRU"
	truthVersion = 1
)

const (
	epFlagOpen       = 1 << iota // episode still active at archive end
	epFlagPersistent             // long-lived (anycast/multi-homing) label
)

// AppendTruthLog appends the binary truth log for eps to dst.
func AppendTruthLog(dst []byte, eps []Episode) []byte {
	dst = append(dst, truthMagic...)
	dst = append(dst, truthVersion)
	dst = binary.AppendUvarint(dst, uint64(len(eps)))
	var frame []byte
	for i := range eps {
		ep := &eps[i]
		frame = frame[:0]
		frame = binenc.AppendPrefix(frame, ep.Prefix)
		frame = binary.AppendUvarint(frame, uint64(len(ep.Origins)))
		for _, o := range ep.Origins {
			frame = binary.AppendUvarint(frame, uint64(o))
		}
		frame = append(frame, byte(ep.Class))
		frame = binary.AppendUvarint(frame, uint64(ep.Start))
		frame = binary.AppendUvarint(frame, uint64(ep.End))
		var flags byte
		if ep.Open {
			flags |= epFlagOpen
		}
		if ep.Persistent {
			flags |= epFlagPersistent
		}
		frame = append(frame, flags)
		frame = binenc.AppendFrame(frame, []byte(ep.Pattern))
		dst = binenc.AppendFrame(dst, frame)
	}
	return dst
}

// WriteTruthLog writes the binary truth log for eps to w.
func WriteTruthLog(w io.Writer, eps []Episode) error {
	_, err := w.Write(AppendTruthLog(nil, eps))
	return err
}

// DecodeTruthLog parses a binary truth log, validating every field —
// corrupt or hostile input returns an error, never a panic or a bogus
// episode.
func DecodeTruthLog(data []byte) ([]Episode, error) {
	r := binenc.NewReader(data)
	if string(r.Bytes(len(truthMagic))) != truthMagic {
		return nil, fmt.Errorf("synth: bad truth-log magic")
	}
	if v := r.Byte(); r.Err() == nil && v != truthVersion {
		return nil, fmt.Errorf("synth: unsupported truth-log version %d", v)
	}
	n := r.Count(2) // each episode frame is >= 2 bytes (len prefix + body)
	var eps []Episode
	for i := 0; i < n && r.Err() == nil; i++ {
		fr := r.Frame()
		var ep Episode
		ep.Prefix = fr.Prefix()
		no := fr.Count(1)
		if no > 0 {
			ep.Origins = make([]bgp.ASN, 0, no)
		}
		prev := int64(-1)
		for j := 0; j < no; j++ {
			v := fr.Uvarint()
			if fr.Err() != nil {
				break
			}
			if v > 0xFFFFFFFF || int64(v) <= prev {
				return nil, fmt.Errorf("synth: truth episode %d: origins not strictly ascending 32-bit", i)
			}
			prev = int64(v)
			ep.Origins = append(ep.Origins, bgp.ASN(v))
		}
		ep.Class = core.Class(fr.Byte())
		ep.Start = int(fr.Uvarint())
		ep.End = int(fr.Uvarint())
		flags := fr.Byte()
		ep.Open = flags&epFlagOpen != 0
		ep.Persistent = flags&epFlagPersistent != 0
		pat := fr.Frame()
		ep.Pattern = string(pat.Bytes(pat.Len()))
		if err := fr.End(); err != nil {
			return nil, fmt.Errorf("synth: truth episode %d: %w", i, err)
		}
		if int(ep.Class) >= core.NumClasses {
			return nil, fmt.Errorf("synth: truth episode %d: class %d out of range", i, ep.Class)
		}
		if ep.Start > ep.End {
			return nil, fmt.Errorf("synth: truth episode %d: start %d after end %d", i, ep.Start, ep.End)
		}
		eps = append(eps, ep)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("synth: truth log: %w", err)
	}
	return eps, nil
}
