package stream_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"moas/internal/stream"
	"moas/internal/synth"
)

// TestBytesPerPrefix holds what the engine keeps per prefix of a
// two-vantage table — prefix table, route nodes, attrs handles and the
// interner's blocks — after a replay of a 64k-prefix synth table, with
// the engine alive, as heap in use after two collections over the heap
// before the engine was built. It measures about 75 bytes, with or without
// the race detector: 8-byte route nodes, whose peer moved onto the attrs
// handle, took 8 off the 82 of 12-byte nodes, and 4-byte index cells and
// the route-list head in the kernel's record had taken 17 off the 99 of
// 8-byte cells and a shard-side array of heads; with 16-byte route
// nodes, a map-indexed interner and 88-byte Attrs it was about 111.
func TestBytesPerPrefix(t *testing.T) {
	gen, err := synth.NewStream(synth.Config{
		Seed:     1,
		Days:     2,
		Prefixes: 1 << 16,
		ASes:     75000, // clamps to the wire ceiling of 60000
		Vantages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, gen); err != nil {
		t.Fatal(err)
	}
	cal := stream.NewCalendar([]int{0, 1}, synth.DayTime)
	before := heapInuse()
	e := stream.New(stream.Config{Shards: 2})
	if err := e.Replay(bytes.NewReader(buf.Bytes()), cal, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	held := float64(heapInuse()) - float64(before)
	st := e.Stats()
	per := held / float64(st.KernelStates)
	t.Logf("%d prefixes, %d routes, %d distinct attrs in %.2f MB: %.0f heap bytes a prefix",
		st.KernelStates, st.RouteNodes, e.DistinctAttrs(), held/1e6, per)
	if per > 79 {
		t.Errorf("%.0f heap bytes a prefix, want <= 79", per)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(buf.Bytes())
}
