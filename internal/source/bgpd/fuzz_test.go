package bgpd

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
)

// sessionCorpusSeeds returns the committed fuzz seeds: a full handshake
// transcript (OPEN, KEEPALIVE, UPDATE, NOTIFICATION), each message kind
// alone, and framing damage. The same bytes live under
// testdata/fuzz/FuzzBGPSessionMessages (TestGenerateSessionFuzzCorpus).
func sessionCorpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	open := (&bgp.Open{Version: 4, AS: 65001, HoldTime: 90, BGPID: [4]byte{10, 0, 0, 1}}).AppendWire(nil)
	upd := (&bgp.Update{
		Attrs: &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, 65002}}},
			NextHop: [4]byte{192, 0, 2, 1},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix("10.0.0.0/8")},
	}).AppendWire(nil)
	wd := (&bgp.Update{Withdrawn: []bgp.Prefix{bgp.MustParsePrefix("10.0.0.0/8")}}).AppendWire(nil)
	notif := (&bgp.Notification{Code: NotifCease}).AppendWire(nil)
	ka := bgp.AppendKeepalive(nil)

	var session []byte
	session = append(session, open...)
	session = append(session, ka...)
	session = append(session, upd...)
	session = append(session, wd...)
	session = append(session, notif...)

	badMarker := bytes.Clone(open)
	badMarker[3] = 0x00
	return map[string][]byte{
		"session":      session,
		"open":         open,
		"update":       upd,
		"withdraw":     wd,
		"notification": notif,
		"keepalive":    ka,
		"truncated":    upd[:len(upd)/2],
		"bad-marker":   badMarker,
		"empty":        {},
	}
}

// FuzzBGPSessionMessages is the speaker's robustness claim: any byte
// stream fed through the session message path — framing, header
// validation, and the OPEN/UPDATE/NOTIFICATION parsers the FSM
// dispatches to — either errors cleanly or parses, without panicking,
// for any input a hostile or broken peer could send.
func FuzzBGPSessionMessages(f *testing.F) {
	for _, seed := range sessionCorpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf [maxFrame]byte
		in := new(bgp.AttrsInterner)
		var upd bgp.Update
		for {
			frame, err := readFrame(br, buf[:])
			if err != nil {
				return
			}
			msgType, body, err := bgp.MessageBody(frame)
			if err != nil {
				return
			}
			switch msgType {
			case bgp.MsgOpen:
				if _, err := parseOpen(frame); err != nil {
					return
				}
			case bgp.MsgUpdate:
				if err := bgp.DecodeUpdateBodyInto(&upd, body, in); err != nil {
					return
				}
			default:
				if _, _, err := bgp.DecodeMessage(frame); err != nil {
					return
				}
			}
		}
	})
}

// TestGenerateSessionFuzzCorpus rewrites the committed seed corpus from
// the current encoders; a skip unless MOAS_GEN_FUZZ_CORPUS=1.
func TestGenerateSessionFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBGPSessionMessages")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range sessionCorpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
