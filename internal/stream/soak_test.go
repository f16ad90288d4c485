package stream

import (
	"testing"

	"moas/internal/bgp"
)

// TestInternerCapPlateau soaks the engine's interner with an endless
// stream of distinct attribute blocks — the live-feed pattern replay
// never produces — and requires its memory to plateau at the configured
// cap: the distinct count never exceeds the cap, epoch rebuilds happen,
// and the committed bytes stop growing once the first epoch has filled.
func TestInternerCapPlateau(t *testing.T) {
	const capN = 64
	e := New(Config{Shards: 1})
	defer e.Close()
	in := e.Interner()
	in.SetCap(capN)

	p := bgp.MustParsePrefix("10.0.0.0/8")
	var pk PeerKey
	pk.IP[3], pk.AS = 1, 65001

	var peak, plateau int64
	var wire []byte
	for i := 0; i < capN*40; i++ {
		attrs := &bgp.Attrs{
			Origin: bgp.OriginIGP,
			// A unique trailing AS per block: no two inserts ever hit.
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, bgp.ASN(100 + i)}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
		wire = attrs.AppendWire(wire[:0])
		a, err := in.Intern(wire, false)
		if err != nil {
			t.Fatal(err)
		}
		e.ApplyUpdate(0, pk, &bgp.Update{Attrs: a, NLRI: []bgp.Prefix{p}})
		if n := in.Len(); n > capN {
			t.Fatalf("insert %d: %d distinct blocks held, cap is %d", i, n, capN)
		}
		if b := in.Bytes(); b > peak {
			peak = b
		}
		if i == 2*capN {
			// By now at least one full epoch has filled: the peak so far
			// is the plateau every later epoch must stay near.
			plateau = peak
		}
	}

	st := e.Stats()
	if st.DistinctAttrs > capN {
		t.Errorf("Stats.DistinctAttrs=%d, want <= %d", st.DistinctAttrs, capN)
	}
	if st.InternerEpochs < 2 {
		t.Errorf("Stats.InternerEpochs=%d after %d distinct blocks at cap %d, want >= 2",
			st.InternerEpochs, capN*40, capN)
	}
	if plateau == 0 {
		t.Fatal("no bytes accounted by 2*cap inserts")
	}
	if peak > 2*plateau {
		t.Errorf("interner bytes kept growing: peak %d vs first-epoch plateau %d", peak, plateau)
	}
	if st.InternerBytes > peak {
		t.Errorf("final bytes %d above observed peak %d", st.InternerBytes, peak)
	}
}
