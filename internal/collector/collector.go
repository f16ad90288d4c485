// Package collector plays the role of the Oregon Route Views server: it
// assembles the per-peer daily tables a scenario produces and writes them
// as MRT TABLE_DUMP archives — the on-disk format of the NLANR and PCH
// collections the paper parsed — and reads such archives back into the
// table views the detector consumes.
package collector

import (
	"fmt"
	"io"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/rib"
	"moas/internal/scenario"
)

// ViewNum identifies the collector's single view in TABLE_DUMP records.
const ViewNum = 0

// peerIPFor synthesizes a stable collector-LAN address for a peer index.
func peerIPFor(peerID uint16) [16]byte {
	return [16]byte{198, 32, byte(peerID >> 8), byte(peerID)}
}

// nextHopFor synthesizes the peer's announced next hop.
func nextHopFor(peerID uint16) [4]byte {
	return [4]byte{198, 32, byte(peerID >> 8), byte(peerID)}
}

// WriteDay serializes one calendar day's complete multi-peer table as an
// MRT TABLE_DUMP stream: one record per (prefix, peer route), in canonical
// prefix order, with the day's date as the record timestamp.
func WriteDay(w io.Writer, sc *scenario.Scenario, day int) error {
	view := sc.TableViewAt(day)
	return WriteView(w, view, uint32(sc.DayDate(day).Unix()))
}

// WriteView serializes an arbitrary table view at the given timestamp.
func WriteView(w io.Writer, view *rib.TableView, timestamp uint32) error {
	mw := mrt.NewWriter(w)
	seq := uint16(0)
	var werr error
	for _, prefix := range view.Prefixes() {
		for _, pr := range view.Routes(prefix) {
			attrs := pr.Route.Attrs
			if attrs == nil {
				continue
			}
			td := &mrt.TableDump{
				ViewNum:        ViewNum,
				Seq:            seq,
				Prefix:         prefix,
				Status:         1,
				OriginatedTime: timestamp,
				PeerIP:         peerIPFor(pr.PeerID),
				PeerAS:         pr.PeerAS,
				Attrs:          attrs,
			}
			if !attrsHaveNextHop(attrs) {
				// TABLE_DUMP attributes carry NEXT_HOP on the wire; the
				// simulator does not model next hops, so synthesize one.
				cp := *attrs
				cp.NextHop = nextHopFor(pr.PeerID)
				td.Attrs = &cp
			}
			if err := mw.WriteTableDump(timestamp, td); err != nil {
				werr = err
				break
			}
			seq++ // wraps at 65535, as in real multi-100k-record dumps
		}
	}
	if werr != nil {
		return werr
	}
	return mw.Flush()
}

func attrsHaveNextHop(a *bgp.Attrs) bool {
	return a.NextHop != [4]byte{}
}

// Skipped counts the records ReadDay took no routes from, by reason:
// records of any type that carries no table, by type and subtype
// ("BGP4MP subtype 1").
type Skipped map[string]int

// ReadDay parses a plain MRT table dump — TABLE_DUMP records, or a
// TABLE_DUMP_V2 PEER_INDEX_TABLE and the RIB_IPV4_UNICAST and
// RIB_IPV6_UNICAST records that follow it — back into a table view,
// mapping each distinct (peer IP, peer AS) to a stable peer ID in order
// of first appearance — exactly how the paper's tooling reconstructed
// per-peer tables from archive files. Both formats keep routes of either
// family. mrt.Open decompresses a gzipped file (the NLANR archives
// shipped as oix-full-snapshot-*.gz) for it. Every other record is
// skipped and counted by reason; a record that does not decode fails the
// read with its ordinal (records count from 1).
func ReadDay(r io.Reader) (*rib.TableView, Skipped, error) {
	fr := mrt.NewFramer(r)
	var body []byte
	view := rib.NewTableView()
	skipped := Skipped{}
	type peerKey struct {
		ip [16]byte
		as bgp.ASN
	}
	peerIDs := map[peerKey]uint16{}
	add := func(ip [16]byte, as bgp.ASN, p bgp.Prefix, attrs *bgp.Attrs) {
		key := peerKey{ip: ip, as: as}
		id, ok := peerIDs[key]
		if !ok {
			id = uint16(len(peerIDs))
			peerIDs[key] = id
		}
		view.Add(rib.PeerRoute{PeerID: id, PeerAS: as, Route: bgp.Route{Prefix: p, Attrs: attrs}})
	}
	var td mrt.TableDump
	var index mrt.PeerIndexTable
	var rt mrt.RIB
	for n := 1; ; n++ {
		h, b, err := fr.NextInto(body[:0])
		if err == io.EOF {
			return view, skipped, nil
		}
		if err != nil {
			return nil, nil, err
		}
		body = b
		switch {
		case h.Type == mrt.TypeTableDump:
			if err = td.DecodeTableDump(body, h.Subtype); err == nil {
				add(td.PeerIP, td.PeerAS, td.Prefix, td.Attrs.Clone())
			}
		case h.Type == mrt.TypeTableDumpV2 && h.Subtype == mrt.SubtypePeerIndexTable:
			err = index.DecodePeerIndexTable(body)
		case h.Type == mrt.TypeTableDumpV2 && (h.Subtype == mrt.SubtypeRIBIPv4Unicast || h.Subtype == mrt.SubtypeRIBIPv6Unicast):
			if err = rt.DecodeRIB(body, h.Subtype); err != nil {
				break
			}
			for _, e := range rt.Entries {
				if int(e.PeerIndex) >= len(index.Peers) {
					err = fmt.Errorf("RIB entry for peer %d of a %d-peer index", e.PeerIndex, len(index.Peers))
					break
				}
				peer := &index.Peers[e.PeerIndex]
				add(peer.IP, peer.AS, rt.Prefix, e.Attrs) // DecodeRIB allocates each entry's Attrs
			}
		default:
			skipped[fmt.Sprintf("%s subtype %d", h.Type, h.Subtype)]++
		}
		if err != nil {
			return nil, nil, fmt.Errorf("collector: record %d: %w", n, err)
		}
	}
}
