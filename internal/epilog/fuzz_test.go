package epilog

import (
	"reflect"
	"testing"

	"moas/internal/binenc"
	"moas/internal/binenc/binenctest"
)

// segImage encodes a complete segment from episodes, the writer's way.
func segImage(eps []Episode) []byte {
	buf := appendHeader(nil)
	var payload []byte
	for i := range eps {
		payload = appendRecordPayload(payload[:0], &eps[i])
		buf = binenc.AppendFrame(buf, payload)
	}
	return buf
}

// TestSegmentRefusesPaddedRecords: one junk byte wrapped into a record
// frame, or left after the last record, is refused.
func TestSegmentRefusesPaddedRecords(t *testing.T) {
	img := segImage([]Episode{ep("10.0.0.0/8", 1, 0, 3, false, 100, 200), ep("10.1.0.0/16", 2, 1, 1, true, 7, 9)})
	if _, err := decodeSegment(img, nil); err != nil {
		t.Fatalf("unpadded segment: %v", err)
	}
	for _, c := range binenctest.Padded(t, img, headerLen, "record 0", "record 1") {
		if _, err := decodeSegment(c.Data, nil); err == nil {
			t.Errorf("a junk byte in the %s frame was accepted", c.Name)
		}
	}
}

// FuzzEpisodeLogDecode hammers the segment decoder with hostile input.
// Required properties: no panic, no over-read (the good offset stays in
// range and its prefix re-decodes cleanly — that prefix is what
// torn-tail repair keeps), and accepted records survive a re-encode /
// re-decode round trip.
func FuzzEpisodeLogDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(appendHeader(nil))
	f.Add(segImage([]Episode{ep("10.0.0.0/8", 1, 0, 0, true, 100, 200)}))
	f.Add(segImage([]Episode{
		ep("10.0.0.0/8", 1, 3, 3, true, 100, 200),
		ep("10.0.0.0/8", 2, 3, 6, false, 100, 200),
		ep("2001:db8::/32", 9, 0, 400, false, 1, 2, 3),
	}))
	// A torn tail: a valid record followed by half of another.
	whole := segImage([]Episode{
		ep("10.0.0.0/8", 1, 0, 0, true, 100, 200),
		ep("10.0.0.0/8", 2, 0, 5, false, 100, 200),
	})
	f.Add(whole[:len(whole)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		var eps []Episode
		good, err := decodeSegment(data, func(ep *Episode) error {
			eps = append(eps, cloneEpisode(ep))
			return nil
		})
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		if good >= headerLen {
			// What torn-tail repair would keep must parse cleanly and
			// yield exactly the records seen before the damage.
			var again []Episode
			g2, err2 := decodeSegment(data[:good], func(ep *Episode) error {
				again = append(again, cloneEpisode(ep))
				return nil
			})
			if err2 != nil || g2 != good {
				t.Fatalf("repaired prefix does not re-decode: good=%d g2=%d err=%v", good, g2, err2)
			}
			if !reflect.DeepEqual(eps, again) {
				t.Fatalf("repaired prefix decodes differently:\n %+v\n %+v", eps, again)
			}
		}
		if err != nil {
			return
		}
		// Accepted input: encode the decoded records and decode that;
		// the episodes must survive unchanged. (Byte equality is too
		// strong — non-minimal varints decode but re-encode shorter.)
		re := segImage(eps)
		var back []Episode
		if _, err := decodeSegment(re, func(ep *Episode) error {
			back = append(back, cloneEpisode(ep))
			return nil
		}); err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !reflect.DeepEqual(eps, back) {
			t.Fatalf("round trip mismatch:\n %+v\n %+v", eps, back)
		}
	})
}
