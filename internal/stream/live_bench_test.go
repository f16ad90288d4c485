package stream_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/source/bgpd"
	"moas/internal/stream"
)

// BenchmarkLiveTransfer is moasbench live-serve's table transfer in one
// process: two scripted BGP sessions send a 256k-prefix table — one
// single-prefix UPDATE per prefix, the prefixes alternating between the
// sessions, 16 consecutive prefixes sharing an origin — as fast as TCP
// takes it, into a bgpd.Speaker that Engine.Run drains. An iteration is
// timed from the first byte sent to the last update dispatched;
// allocs/update counts every goroutine's allocations over that window
// (senders, session readers, Next, the ingest loop and the shards).
func BenchmarkLiveTransfer(b *testing.B) {
	const table, sessions = 256 << 10, 2
	var wire [sessions][]byte
	for i := 0; i < table; i++ {
		s := i % sessions
		u := &bgp.Update{
			Attrs: &bgp.Attrs{
				Origin:  bgp.OriginIGP,
				ASPath:  bgp.Seq(bgp.ASN(65001+s), 1239, bgp.ASN(2000+i/16%50000)),
				NextHop: [4]byte{10, 0, byte(s), 1},
			},
			NLRI: []bgp.Prefix{bgp.PrefixFromUint32(0x10000000+uint32(i)<<8, 24)},
		}
		wire[s] = u.AppendWire(wire[s])
	}
	b.SetBytes(int64(len(wire[0]) + len(wire[1])))
	b.ReportAllocs()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := stream.New(stream.Config{})
		sp, err := bgpd.Listen(bgpd.Config{Addr: "127.0.0.1:0", LocalAS: 64512, Interner: e.Interner()})
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		runDone := make(chan error, 1)
		go func() { runDone <- e.Run(sp, &stream.RunOptions{Stop: stop}) }()
		var peers [sessions]*bgpd.ScriptedPeer
		for s := range peers {
			if peers[s], err = bgpd.DialScripted(sp.Addr().String(), bgp.ASN(65001+s), 0); err != nil {
				b.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()

		var wg sync.WaitGroup
		sendErr := make([]error, sessions)
		for s, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for w := wire[s]; len(w) > 0 && sendErr[s] == nil; {
					n := min(len(w), 64<<10)
					sendErr[s] = p.SendRaw(w[:n])
					w = w[n:]
				}
			}()
		}
		for e.Records() < table {
			time.Sleep(time.Millisecond)
		}

		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		wg.Wait()
		for _, err := range sendErr {
			if err != nil {
				b.Fatal(err)
			}
		}
		close(stop)
		if err := <-runDone; err != stream.ErrReplayStopped {
			b.Fatalf("Run: %v, want ErrReplayStopped", err)
		}
		for _, p := range peers {
			p.Close()
		}
		e.Close()
	}
	updates := float64(table) * float64(b.N)
	b.ReportMetric(float64(mallocs)/updates, "allocs/update")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(updates/sec, "updates/s")
	}
}
