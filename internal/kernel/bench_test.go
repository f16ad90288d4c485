package kernel_test

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// Storm-shaped fixture: the event-heavy state a flap storm leaves.
const (
	stormPrefixes = 8192
	stormEvents   = 118 // per prefix: 59 start/end cycles
)

// flap drives one start or end event into p: event i of a prefix that
// flaps between a two-origin conflict and its first origin alone.
func flap(k *kernel.Kernel, p bgp.Prefix, i int) {
	o := kernel.Obs{Day: i / 2, Prefix: p, Origins: flapOrigins[:1]}
	if i%2 == 0 {
		o.Origins, o.Class = flapOrigins[:], core.ClassDistinctPaths
	}
	k.Apply(o)
}

var flapOrigins = [2]bgp.ASN{64500, 64501}

func stormPrefix(i int) bgp.Prefix { return bgp.PrefixFromUint32(uint32(i)<<8, 24) }

// stormKernel builds the fixture, events interleaved across prefixes the
// way a storm delivers them.
func stormKernel() *kernel.Kernel {
	k := kernel.New(kernel.Options{})
	for ev := 0; ev < stormEvents; ev++ {
		for i := 0; i < stormPrefixes; i++ {
			flap(k, stormPrefix(i), ev)
		}
	}
	return k
}

var snapshotSink *kernel.Snapshot

// BenchmarkStormSnapshot images the storm fixture: time, bytes and
// objects must follow the table's size, not its event count.
func BenchmarkStormSnapshot(b *testing.B) {
	k := stormKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = k.Snapshot()
	}
}
