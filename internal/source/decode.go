package source

import (
	"fmt"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// Kind says what a framed MRT record turned out to hold.
type Kind uint8

const (
	// KindSkip is anything but a BGP4MP message record (a state change, a
	// table dump, ...): an update-stream consumer passes over it.
	KindSkip Kind = iota
	// KindMessage is a BGP message other than UPDATE (open, keepalive,
	// notification), validated. It carries no routes, but its timestamp
	// still counts for observation-day accounting: only Record.TS is set.
	KindMessage
	// KindUpdate is a BGP UPDATE: TS, peer and Upd are all decoded.
	KindUpdate
)

// Decoder turns framed MRT records into Records — the one BGP4MP record →
// UPDATE decode sequence in the repository, shared by the archive replay's
// framer (stream) and the File source, so a malformed archive fails
// identically on either path. A Decoder holds private scratch and is
// single-goroutine, and so is its interner: an interner has one writer
// at a time (see bgp.AttrsInterner).
type Decoder struct {
	// Interner canonicalizes decoded attribute blocks; nil decodes
	// private copies.
	Interner *bgp.AttrsInterner
	msg      mrt.BGP4MPMessage // borrow-decode scratch
}

// Decode fills rec from one framed record, reusing rec.Upd's backing
// arrays. It never touches rec.Seq: sequencing belongs to the caller. On
// a KindMessage or KindUpdate record rec.TS is set even when an error is
// returned, so a consumer can still run the day closes the corrupt
// record's own timestamp implies before failing.
func (d *Decoder) Decode(rec *Record, h mrt.Header, body []byte) (Kind, error) {
	if h.Type != mrt.TypeBGP4MP || h.Subtype != mrt.SubtypeMessage {
		return KindSkip, nil
	}
	rec.TS = h.Timestamp
	if err := d.msg.DecodeBGP4MPMessageBorrow(body); err != nil {
		return KindMessage, err
	}
	rec.PeerIP, rec.PeerAS = d.msg.PeerIP, d.msg.PeerAS
	msgType, mbody, err := bgp.MessageBody(d.msg.Data)
	kind := KindMessage
	switch {
	case err != nil:
	case msgType == bgp.MsgUpdate:
		kind = KindUpdate
		err = bgp.DecodeUpdateBodyInto(&rec.Upd, mbody, d.Interner)
	default:
		// The rare non-update kinds get the full decode's validation.
		_, _, err = bgp.DecodeMessage(d.msg.Data)
	}
	if err != nil {
		return KindMessage, fmt.Errorf("embedded message: %w", err)
	}
	return kind, nil
}
