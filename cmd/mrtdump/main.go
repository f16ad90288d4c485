// Command mrtdump pretty-prints MRT files record by record, in the spirit
// of bgpdump: TABLE_DUMP and TABLE_DUMP_V2 RIB entries, BGP4MP messages
// and state changes. A gzipped file is decompressed as it is read (gzip
// detected by content, as in moasdetect and moasd).
//
// Usage:
//
//	mrtdump FILE [FILE...]
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mrtdump FILE [FILE...]")
		os.Exit(2)
	}
	exit := 0
	for _, name := range os.Args[1:] {
		if err := dumpFile(name); err != nil {
			fmt.Fprintf(os.Stderr, "mrtdump: %s: %v\n", name, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func dumpFile(name string) error {
	f, err := mrt.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()

	fr := mrt.NewFramer(f)
	var body []byte
	for n := 0; ; n++ {
		h, b, err := fr.NextInto(body[:0])
		if err == io.EOF {
			fmt.Printf("%s: %d records\n", name, n)
			return nil
		}
		if err != nil {
			return err
		}
		body = b
		ts := time.Unix(int64(h.Timestamp), 0).UTC().Format("2006-01-02 15:04:05")
		dec, err := mrt.DecodeRecord(h, body)
		if err != nil {
			fmt.Printf("%s %v/%d (%d bytes): %v\n", ts, h.Type, h.Subtype, h.Length, err)
			continue
		}
		switch d := dec.(type) {
		case *mrt.TableDump:
			fmt.Printf("%s TABLE_DUMP seq=%d %s peer %s [%s] origin %s\n",
				ts, d.Seq, d.Prefix, d.PeerAS, d.Attrs.ASPath, originOf(d.Attrs.ASPath))
		case *mrt.PeerIndexTable:
			fmt.Printf("%s PEER_INDEX_TABLE view=%q peers=%d\n", ts, d.ViewName, len(d.Peers))
			for i, p := range d.Peers {
				fmt.Printf("  [%d] %s\n", i, p.AS)
			}
		case *mrt.RIB:
			fmt.Printf("%s RIB seq=%d %s entries=%d\n", ts, d.Seq, d.Prefix, len(d.Entries))
			for _, e := range d.Entries {
				fmt.Printf("  peer#%d [%s]\n", e.PeerIndex, e.Attrs.ASPath)
			}
		case *mrt.BGP4MPMessage:
			msg, err := d.Message()
			kind := fmt.Sprintf("%T", msg)
			if err != nil {
				kind = "undecodable: " + err.Error()
			} else if msg == nil {
				kind = "KEEPALIVE"
			}
			fmt.Printf("%s BGP4MP_MESSAGE %s -> %s %s\n", ts, d.PeerAS, d.LocalAS, kind)
		case *mrt.BGP4MPStateChange:
			fmt.Printf("%s BGP4MP_STATE_CHANGE %s: %d -> %d\n", ts, d.PeerAS, d.OldState, d.NewState)
		}
	}
}

func originOf(p bgp.Path) string {
	if o, ok := p.Origin(); ok {
		return o.String()
	}
	return "(AS_SET)"
}
