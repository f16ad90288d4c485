package collector

import (
	"io"
	"sort"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/rib"
)

// Update traces. Besides daily snapshots, real collectors archive the BGP
// UPDATE messages peers send between them (the BGP4MP files of Route Views
// and RIPE RIS). This file derives the per-peer UPDATE stream that
// transforms one day's table into the next, serializes it as
// BGP4MP_MESSAGE records, and replays such streams over per-peer
// Adj-RIB-In state. A test proves snapshot(d) + updates(d→d') replays to
// exactly snapshot(d') — the consistency property linking the two archive
// formats.

// LocalAS is the collector's AS in BGP4MP records (Route Views used 6447).
const LocalAS bgp.ASN = 6447

// peerDelta is one peer's day-over-day change set.
type peerDelta struct {
	peerID    uint16
	peerAS    bgp.ASN
	withdrawn []bgp.Prefix
	announced []bgp.Route
}

// diffViews computes each peer's withdrawals and (re)announcements going
// from the old to the new view. Announcements include attribute changes.
func diffViews(oldView, newView *rib.TableView) []peerDelta {
	type peerState struct {
		id     uint16
		as     bgp.ASN
		oldRts map[bgp.Prefix]*bgp.Attrs
		newRts map[bgp.Prefix]*bgp.Attrs
	}
	peers := map[uint16]*peerState{}
	collect := func(v *rib.TableView, into func(*peerState) map[bgp.Prefix]*bgp.Attrs) {
		v.Walk(func(p bgp.Prefix, routes []rib.PeerRoute) bool {
			for _, pr := range routes {
				st := peers[pr.PeerID]
				if st == nil {
					st = &peerState{
						id: pr.PeerID, as: pr.PeerAS,
						oldRts: map[bgp.Prefix]*bgp.Attrs{},
						newRts: map[bgp.Prefix]*bgp.Attrs{},
					}
					peers[pr.PeerID] = st
				}
				into(st)[p] = pr.Route.Attrs
			}
			return true
		})
	}
	collect(oldView, func(s *peerState) map[bgp.Prefix]*bgp.Attrs { return s.oldRts })
	collect(newView, func(s *peerState) map[bgp.Prefix]*bgp.Attrs { return s.newRts })

	var ids []int
	for id := range peers {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)

	var out []peerDelta
	for _, id := range ids {
		st := peers[uint16(id)]
		d := peerDelta{peerID: st.id, peerAS: st.as}
		for p := range st.oldRts {
			if _, still := st.newRts[p]; !still {
				d.withdrawn = append(d.withdrawn, p)
			}
		}
		for p, attrs := range st.newRts {
			if old, had := st.oldRts[p]; !had || !old.Equal(attrs) {
				d.announced = append(d.announced, bgp.Route{Prefix: p, Attrs: attrs})
			}
		}
		sort.Slice(d.withdrawn, func(i, j int) bool { return d.withdrawn[i].Compare(d.withdrawn[j]) < 0 })
		sort.Slice(d.announced, func(i, j int) bool {
			return d.announced[i].Prefix.Compare(d.announced[j].Prefix) < 0
		})
		if len(d.withdrawn) > 0 || len(d.announced) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// maxNLRIPerUpdate bounds prefixes per UPDATE so messages stay within the
// 4096-byte BGP limit with room for attributes.
const maxNLRIPerUpdate = 200

// WriteViewUpdates derives the UPDATE stream transforming oldView into
// newView and writes it as BGP4MP_MESSAGE records stamped timestamp.
// Withdrawals are batched; announcements are grouped by identical
// attribute content.
func WriteViewUpdates(w io.Writer, oldView, newView *rib.TableView, timestamp uint32) error {
	mw := mrt.NewWriter(w)
	for _, d := range diffViews(oldView, newView) {
		msg := &mrt.BGP4MPMessage{
			PeerAS:  d.peerAS,
			LocalAS: LocalAS,
			Family:  bgp.FamilyIPv4,
			PeerIP:  peerIPFor(d.peerID),
			LocalIP: [16]byte{198, 32, 255, 254},
		}
		// Withdrawals in batches.
		for i := 0; i < len(d.withdrawn); i += maxNLRIPerUpdate {
			end := i + maxNLRIPerUpdate
			if end > len(d.withdrawn) {
				end = len(d.withdrawn)
			}
			upd := &bgp.Update{Withdrawn: d.withdrawn[i:end]}
			msg.Data = upd.AppendWire(msg.Data[:0])
			if err := mw.WriteBGP4MPMessage(timestamp, msg); err != nil {
				return err
			}
		}
		// Announcements grouped by identical attribute bytes.
		groups := map[string][]bgp.Prefix{}
		attrsFor := map[string]*bgp.Attrs{}
		var order []string
		for _, r := range d.announced {
			key := string(r.Attrs.AppendWire(nil))
			if _, ok := groups[key]; !ok {
				order = append(order, key)
				attrsFor[key] = r.Attrs
			}
			groups[key] = append(groups[key], r.Prefix)
		}
		for _, key := range order {
			prefixes := groups[key]
			for i := 0; i < len(prefixes); i += maxNLRIPerUpdate {
				end := i + maxNLRIPerUpdate
				if end > len(prefixes) {
					end = len(prefixes)
				}
				upd := &bgp.Update{Attrs: attrsFor[key], NLRI: prefixes[i:end]}
				msg.Data = upd.AppendWire(msg.Data[:0])
				if err := mw.WriteBGP4MPMessage(timestamp, msg); err != nil {
					return err
				}
			}
		}
	}
	return mw.Flush()
}
