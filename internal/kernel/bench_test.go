package kernel_test

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// Storm-shaped fixture: the event-heavy state a flap storm leaves, where
// per-prefix history is nearly all a kernel holds.
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
func stormKernel(opts kernel.Options) *kernel.Kernel {
	k := kernel.New(opts)
	for ev := 0; ev < stormEvents; ev++ {
		for i := 0; i < stormPrefixes; i++ {
			flap(k, stormPrefix(i), ev)
		}
	}
	return k
}

// BenchmarkFlapAtCap256 is one prefix flapping with its history full at
// the default cap: every event evicts the oldest. It must cost what an
// append costs (BenchmarkFlapBelowCap), not a shift of the whole history.
// The days wrap where BelowCap starts its kernel over, so both count
// their ended activations under as many distinct spans: b.N distinct
// days — millennia of them — would time those counts growing instead.
func BenchmarkFlapAtCap256(b *testing.B) {
	k := kernel.New(kernel.Options{HistoryCap: 256})
	p := stormPrefix(1)
	for i := 0; i < 512; i++ {
		flap(k, p, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flap(k, p, i%4096)
	}
}

// BenchmarkFlapBelowCap is the same flap into histories that only grow
// (each from empty to 4096 events, then a fresh kernel, so the run's
// memory does not scale with b.N).
func BenchmarkFlapBelowCap(b *testing.B) {
	k := kernel.New(kernel.Options{})
	p := stormPrefix(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			k = kernel.New(kernel.Options{})
		}
		flap(k, p, i)
	}
}

var snapshotSink *kernel.Snapshot

// BenchmarkStormSnapshot images the storm fixture: time, bytes and
// objects must follow the table's size, not its event count.
func BenchmarkStormSnapshot(b *testing.B) {
	k := stormKernel(kernel.Options{HistoryCap: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = k.Snapshot()
	}
}
